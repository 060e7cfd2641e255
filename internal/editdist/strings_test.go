package editdist

import (
	"math/rand"
	"strings"
	"testing"

	"treesim/internal/tree"
)

// StringDistance is the reference unit-cost Levenshtein distance between
// two label sequences, in O(|a|·|b|) time and O(min) space: what the
// banded seqDist must equal, capped at its band.
func StringDistance(a, b []string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter sequence; one rolling row of length |b|+1.
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, sub)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// labelsOf returns the nodes' labels, in order: labelsOf(t.PreOrder()) and
// labelsOf(t.PostOrder()) are the two sequences of the Guha et al. bound.
func labelsOf(nodes []*tree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Label
	}
	return out
}

// refSeqBound is the Guha et al. bound by the reference StringDistance: the
// postorder and the preorder sequences' distances.
func refSeqBound(t1, t2 *tree.Tree) (post, pre int) {
	return StringDistance(labelsOf(t1.PostOrder()), labelsOf(t2.PostOrder())),
		StringDistance(labelsOf(t1.PreOrder()), labelsOf(t2.PreOrder()))
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "")
}

func TestStringDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "acb", 2}, // no transposition operation
	}
	for _, c := range cases {
		if got := StringDistance(split(c.a), split(c.b)); got != c.want {
			t.Errorf("StringDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestStringDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a := randString(rng, 12)
		b := randString(rng, 12)
		if StringDistance(a, b) != StringDistance(b, a) {
			t.Fatalf("asymmetric for %v, %v", a, b)
		}
	}
}

func randString(rng *rand.Rand, maxLen int) []string {
	n := rng.Intn(maxLen)
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + rng.Intn(3)))
	}
	return out
}

// TestSequenceLowerBoundSound: the Guha et al. bound never exceeds the true
// tree edit distance.
func TestSequenceLowerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	alphabet := []string{"a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		t1 := smallRandomTree(rng, 8, alphabet)
		t2 := smallRandomTree(rng, 8, alphabet)
		lb := SequenceLowerBound(t1, t2)
		d := Distance(t1, t2)
		if lb > d {
			t.Fatalf("sequence bound %d exceeds edit distance %d for %q vs %q",
				lb, d, t1, t2)
		}
	}
}

func TestSequenceLowerBoundTakesMax(t *testing.T) {
	// Identical preorders, different postorders: a(b(c)) vs a(b,c) have
	// preorder abc/abc (distance 0) but postorder cba/bca (distance 2).
	t1, t2 := tree.MustParse("a(b(c))"), tree.MustParse("a(b,c)")
	if got := SequenceLowerBound(t1, t2); got != 2 {
		t.Errorf("SequenceLowerBound = %d, want 2", got)
	}
}
