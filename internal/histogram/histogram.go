// Package histogram implements the histogram filtration baseline of
// Kailing, Kriegel, Schönauer and Seidl (EDBT 2004) — reference [7] of the
// paper and the competitor ("Histo") in every experiment of Section 5.
//
// A tree is summarized by three histograms: the distribution of node
// heights, the distribution of node degrees (fanouts), and the distribution
// of labels. Each histogram yields a lower bound of the unit-cost edit
// distance, and the combined filter takes their maximum.
//
// The exact bound constants of the original publication target the
// *unordered* edit distance and are reconstructed here with constants we
// can prove sound for the ordered unit-cost edit distance used in this
// repository (see DESIGN.md, "Substitutions"):
//
//   - Label histogram: a relabel moves one unit of mass between two bins
//     (L1 change 2); an insert or delete adds or removes one unit (L1
//     change 1). Hence EDist ≥ ceil(L1(labelHist)/2).
//   - Degree histogram: a relabel changes no degree; an insert or delete
//     moves the parent's count between two bins (L1 change ≤ 2) and
//     adds/removes the node's own bin entry (change 1). Hence
//     EDist ≥ ceil(L1(degreeHist)/3).
//   - Height: a single edit operation changes the tree height by at most
//     one (a delete lifts one subtree by one level; an insert pushes one
//     run of subtrees down one level). Hence EDist ≥ |height(T1)−height(T2)|.
//     The full node-height histogram has no constant per-operation L1 bound
//     (one delete shifts every ancestor's height), so the histogram itself
//     is kept for inspection but only the sound height-difference enters
//     the bound.
//   - Size: every operation changes |T| by at most one, so
//     EDist ≥ ||T1|−|T2||.
package histogram

import (
	"hash/fnv"
	"strconv"

	"treesim/internal/tree"
)

// Config bounds the dimensionality of each histogram, mirroring the
// paper's equal-space rule (Section 5: the three histogram vectors
// together get as many dimensions as the average branch vector plus two
// average tree sizes). Values ≤ 0 leave the histogram unbounded.
//
// Folding is sound: hashing labels into LabelBins (or clamping degrees and
// heights at a last catch-all bin) can only merge histogram mass, which
// never increases the L1 distance, so every folded bound remains a lower
// bound of the edit distance.
type Config struct {
	LabelBins  int // label histogram dimensionality (hash-folded)
	DegreeBins int // degree histogram bins; degrees ≥ DegreeBins−1 share the last bin
	HeightBins int // height histogram bins; heights ≥ HeightBins−1 share the last bin
}

// EqualSpace distributes a total dimension budget evenly across the three
// histograms (with a floor of 2 bins each) — the way the paper equalizes
// the space of the Histo baseline with the binary branch representation:
// "the sum of dimension of the three type histogram vectors for one tree"
// equals the branch representation's footprint.
func EqualSpace(totalBins int) Config {
	if totalBins < 6 {
		totalBins = 6
	}
	l := totalBins / 3
	d := totalBins / 3
	h := totalBins - l - d
	return Config{LabelBins: l, DegreeBins: d, HeightBins: h}
}

// EqualSpaceFor applies the equal-space rule to a dataset: a branch vector
// of ≤ |T| dimensions stores two positions per node, ≈ 3·|T| numbers at
// the dataset's average size (rounded down), and the histograms get that.
func EqualSpaceFor(ts []*tree.Tree) Config {
	total := 0
	for _, t := range ts {
		total += t.Size()
	}
	return EqualSpace(3 * (total / max(len(ts), 1)))
}

// Profile is the histogram summary of one tree.
type Profile struct {
	Size   int
	Height int
	// Label[l] counts nodes labeled l. When folded, l is the bucket id.
	Label map[string]int
	// Degree[d] counts nodes with exactly d children (or the clamp bin).
	Degree map[int]int
	// HeightHist[h] counts nodes whose subtree height is h (leaf = 1, or
	// the clamp bin).
	HeightHist map[int]int
}

// NewProfileConfig computes the histogram profile with the given folding
// configuration.
func NewProfileConfig(t *tree.Tree, cfg Config) *Profile {
	p := &Profile{
		Size:       t.Size(),
		Height:     t.Height(),
		Label:      t.LabelCounts(),
		Degree:     t.DegreeCounts(),
		HeightHist: t.HeightCounts(),
	}
	if cfg.LabelBins > 0 {
		folded := make(map[string]int, cfg.LabelBins)
		for l, c := range p.Label {
			folded[bucketLabel(l, cfg.LabelBins)] += c
		}
		p.Label = folded
	}
	if cfg.DegreeBins > 0 {
		p.Degree = clampBins(p.Degree, cfg.DegreeBins)
	}
	if cfg.HeightBins > 0 {
		p.HeightHist = clampBins(p.HeightHist, cfg.HeightBins)
	}
	return p
}

func bucketLabel(label string, bins int) string {
	h := fnv.New32a()
	h.Write([]byte(label))
	return "#" + strconv.Itoa(int(h.Sum32()%uint32(bins)))
}

func clampBins(m map[int]int, bins int) map[int]int {
	out := make(map[int]int, bins)
	for k, c := range m {
		if k >= bins-1 {
			k = bins - 1
		}
		out[k] += c
	}
	return out
}

// ProfileAllConfig profiles every tree with the given folding.
func ProfileAllConfig(ts []*tree.Tree, cfg Config) []*Profile {
	out := make([]*Profile, len(ts))
	for i, t := range ts {
		out[i] = NewProfileConfig(t, cfg)
	}
	return out
}

// LabelBound returns the label-histogram lower bound ceil(L1/2).
func LabelBound(a, b *Profile) int {
	return (l1Str(a.Label, b.Label) + 1) / 2
}

// DegreeBound returns the degree-histogram lower bound ceil(L1/3).
func DegreeBound(a, b *Profile) int {
	return (l1Int(a.Degree, b.Degree) + 2) / 3
}

// HeightBound returns the height lower bound |height(T1)−height(T2)|.
func HeightBound(a, b *Profile) int {
	return iabs(a.Height - b.Height)
}

// SizeBound returns the size lower bound ||T1|−|T2||.
func SizeBound(a, b *Profile) int {
	return iabs(a.Size - b.Size)
}

// LowerBound returns the combined histogram filter distance: the maximum of
// the individual sound bounds. LowerBound(a,b) ≤ EDist(Ta,Tb) always.
func LowerBound(a, b *Profile) int {
	m := LabelBound(a, b)
	if v := DegreeBound(a, b); v > m {
		m = v
	}
	if v := HeightBound(a, b); v > m {
		m = v
	}
	if v := SizeBound(a, b); v > m {
		m = v
	}
	return m
}

func l1Str(a, b map[string]int) int {
	d := 0
	for k, va := range a {
		d += iabs(va - b[k])
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			d += vb
		}
	}
	return d
}

func l1Int(a, b map[int]int) int {
	d := 0
	for k, va := range a {
		d += iabs(va - b[k])
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			d += vb
		}
	}
	return d
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
