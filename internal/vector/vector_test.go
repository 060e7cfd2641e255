package vector

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustVec(m map[uint32]int) *Sparse {
	b := NewBuilder()
	for d, c := range m {
		b.Add(d, c)
	}
	return b.MustVector()
}

func TestBuilderRejectsNegative(t *testing.T) {
	b := NewBuilder()
	b.Add(3, 2)
	b.Add(3, -5)
	if _, err := b.Vector(); err == nil {
		t.Error("negative count accepted")
	}
}

func TestBuilderAccumulates(t *testing.T) {
	b := NewBuilder()
	b.Inc(7)
	b.Inc(7)
	b.Add(7, 3)
	b.Add(1, 1)
	v := b.MustVector()
	if !Equal(v, mustVec(map[uint32]int{1: 1, 7: 5})) {
		t.Errorf("bad accumulation: %v", v.Elems())
	}
}

func TestL1Known(t *testing.T) {
	a := mustVec(map[uint32]int{1: 1, 2: 1, 4: 1, 6: 2, 9: 2, 10: 1})
	b := mustVec(map[uint32]int{1: 1, 3: 1, 5: 1, 6: 2, 7: 1, 8: 1, 10: 2})
	// The Fig. 3 vectors: distance 9.
	if got := L1(a, b); got != 9 {
		t.Errorf("L1 = %d, want 9", got)
	}
	if L1(a, a) != 0 || L1(b, b) != 0 {
		t.Error("self distance non-zero")
	}
	if L1(a, &Sparse{}) != 8 {
		t.Error("distance to zero should be the sum of counts")
	}
}

func randomVec(rng *rand.Rand) *Sparse {
	b := NewBuilder()
	n := rng.Intn(20)
	for i := 0; i < n; i++ {
		b.Add(uint32(rng.Intn(15)), 1+rng.Intn(3))
	}
	return b.MustVector()
}

func TestL1TriangleQuick(t *testing.T) {
	f := func(sa, sb, sc int64) bool {
		a := randomVec(rand.New(rand.NewSource(sa)))
		b := randomVec(rand.New(rand.NewSource(sb)))
		c := randomVec(rand.New(rand.NewSource(sc)))
		return L1(a, c) <= L1(a, b)+L1(b, c) && L1(a, b) == L1(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	a := mustVec(map[uint32]int{1: 1, 2: 3})
	b := mustVec(map[uint32]int{1: 1, 2: 3})
	c := mustVec(map[uint32]int{1: 1, 2: 4})
	d := mustVec(map[uint32]int{1: 1})
	if !Equal(a, b) || Equal(a, c) || Equal(a, d) {
		t.Error("Equal misbehaves")
	}
}

func TestElemsOrderedAndShared(t *testing.T) {
	v := mustVec(map[uint32]int{5: 2, 1: 1})
	es := v.Elems()
	if len(es) != 2 || es[0].Dim != 1 || es[1].Dim != 5 {
		t.Errorf("Elems = %v", es)
	}
}
