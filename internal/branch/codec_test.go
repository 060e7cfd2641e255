package branch

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/tree"
)

func codecDataset() []*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 18, SizeStd: 5, Labels: 5, Decay: 0.1}
	return datagen.New(spec, 77).Dataset(30, 4)
}

func TestCodecRoundTrip(t *testing.T) {
	for _, q := range []int{2, 3} {
		ts := codecDataset()
		s := NewSpace(q)
		ps := s.ProfileAll(ts)

		var buf bytes.Buffer
		if err := Write(&buf, s, ps); err != nil {
			t.Fatal(err)
		}
		s2, ps2, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Q() != q || s2.Size() != s.Size() {
			t.Fatalf("space changed: q=%d size=%d, want q=%d size=%d",
				s2.Q(), s2.Size(), q, s.Size())
		}
		for d := 0; d < s.Size(); d++ {
			if s.Key(Dim(d)) != s2.Key(Dim(d)) {
				t.Fatalf("key %d changed", d)
			}
		}
		if len(ps2) != len(ps) {
			t.Fatalf("%d profiles, want %d", len(ps2), len(ps))
		}
		for i := range ps {
			if ps[i].Size != ps2[i].Size || !maps.Equal(vectorOf(ps[i]), vectorOf(ps2[i])) {
				t.Fatalf("profile %d vector changed", i)
			}
			for j := 0; j < ps[i].NonZero(); j++ {
				if !slices.Equal(ps[i].Occurrences(j), ps2[i].Occurrences(j)) {
					t.Fatalf("profile %d dim %d positions changed", i, j)
				}
			}
		}
		// Distances across the boundary agree.
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if BDist(ps[i], ps[j]) != BDist(ps2[i], ps2[j]) {
					t.Fatalf("BDist(%d,%d) changed", i, j)
				}
				if SearchLBound(ps[i], ps[j]) != SearchLBound(ps2[i], ps2[j]) {
					t.Fatalf("SearchLBound(%d,%d) changed", i, j)
				}
			}
		}
	}
}

func TestCodecRejectsForeignProfile(t *testing.T) {
	ts := codecDataset()
	s1, s2 := NewSpace(2), NewSpace(2)
	p1 := s1.ProfileAll(ts[:3])
	p2 := s2.Profile(ts[4])
	var buf bytes.Buffer
	if err := Write(&buf, s1, append(p1, p2)); err == nil {
		t.Error("foreign profile accepted")
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	ts := codecDataset()
	s := NewSpace(2)
	ps := s.ProfileAll(ts)
	var buf bytes.Buffer
	if err := Write(&buf, s, ps); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, full...)
	bad[0] = 'X'
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations at several depths.
	for _, cut := range []int{3, 8, len(full) / 3, len(full) - 1} {
		if _, _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Implausible q.
	bad = append([]byte{}, full...)
	bad[6] = 200 // q field low byte
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("implausible q accepted")
	}
}

func TestCodecEmptyProfiles(t *testing.T) {
	s := NewSpace(2)
	var buf bytes.Buffer
	if err := Write(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	s2, ps, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Size() != 0 || len(ps) != 0 {
		t.Error("empty space round trip failed")
	}
}
