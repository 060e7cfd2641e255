// Package vector implements sparse non-negative integer vectors with the L1
// (Manhattan) norm: the binary branch vectors of Definition 3, stored as
// sorted (dimension, count) pairs, with distances computed by list merging
// in O(nnz1 + nnz2). No serving code imports it — internal/branch keeps its
// profiles in flat arrays — it is the plain reference that the tests of
// internal/branch and internal/invfile build their oracles from.
package vector

import (
	"fmt"
	"sort"
)

// Elem is one non-zero coordinate of a sparse vector; Dim is a branch.Dim
// (an interned binary branch) as a plain integer.
type Elem struct {
	Dim   uint32
	Count int
}

// Sparse is a sparse vector: the non-zero coordinates sorted by dimension.
// A Sparse is immutable after construction; Builder accumulates counts.
type Sparse struct {
	elems []Elem
}

// Builder accumulates counts per dimension and produces a Sparse.
type Builder struct {
	counts map[uint32]int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{counts: make(map[uint32]int)} }

// Add increments dimension d by delta (which may be negative during
// accumulation, as long as the final count is non-negative).
func (b *Builder) Add(d uint32, delta int) { b.counts[d] += delta }

// Inc increments dimension d by one.
func (b *Builder) Inc(d uint32) { b.counts[d]++ }

// Vector finalizes the builder into an immutable Sparse. It fails if any
// accumulated count is negative.
func (b *Builder) Vector() (*Sparse, error) {
	elems := make([]Elem, 0, len(b.counts))
	for d, c := range b.counts {
		switch {
		case c < 0:
			return nil, fmt.Errorf("vector: dimension %d has negative count %d", d, c)
		case c > 0:
			elems = append(elems, Elem{Dim: d, Count: c})
		}
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i].Dim < elems[j].Dim })
	return &Sparse{elems: elems}, nil
}

// MustVector is Vector that panics on error; for use when all deltas are
// known non-negative.
func (b *Builder) MustVector() *Sparse {
	v, err := b.Vector()
	if err != nil {
		panic(err)
	}
	return v
}

// Elems returns the non-zero coordinates in ascending dimension order. The
// returned slice is shared; callers must not modify it.
func (v *Sparse) Elems() []Elem { return v.elems }

// L1 returns the L1 (Manhattan) distance between a and b, computed by
// merging the two sorted coordinate lists in O(nnz(a)+nnz(b)).
func L1(a, b *Sparse) int {
	dist := 0
	i, j := 0, 0
	for i < len(a.elems) && j < len(b.elems) {
		ea, eb := a.elems[i], b.elems[j]
		switch {
		case ea.Dim < eb.Dim:
			dist += ea.Count
			i++
		case ea.Dim > eb.Dim:
			dist += eb.Count
			j++
		default:
			dist += abs(ea.Count - eb.Count)
			i++
			j++
		}
	}
	for ; i < len(a.elems); i++ {
		dist += a.elems[i].Count
	}
	for ; j < len(b.elems); j++ {
		dist += b.elems[j].Count
	}
	return dist
}

// Equal reports whether a and b have identical coordinates.
func Equal(a, b *Sparse) bool {
	if len(a.elems) != len(b.elems) {
		return false
	}
	for i := range a.elems {
		if a.elems[i] != b.elems[i] {
			return false
		}
	}
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
