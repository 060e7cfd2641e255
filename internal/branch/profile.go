package branch

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"treesim/internal/btree"
	"treesim/internal/labels"
	"treesim/internal/tree"
	"treesim/internal/vector"
)

// Occurrence is one occurrence of a binary branch: the 1-based preorder and
// postorder position (in the original tree T) of the node the branch is
// rooted at. Proposition 4.1 bounds how far an occurrence can move under k
// edit operations, which is what the positional filter exploits.
type Occurrence struct {
	Pre  int32
	Post int32
}

// flat is the backing store of one or more profiles in compressed sparse
// row layout: three contiguous arrays instead of a pointer per vector, per
// coordinate and per occurrence list. The profiles of one sealed segment
// share a flat, so a filter pass walks memory sequentially.
type flat struct {
	space *Space
	// dims holds the non-zero dimensions, strictly ascending within each
	// profile's coordinate range.
	dims []vector.Dim
	// offs has one entry per coordinate plus a final sentinel: the
	// occurrences of coordinate c are occ[offs[c]:offs[c+1]], so a
	// coordinate's count is the difference of two neighbours.
	offs []uint32
	// occ holds every occurrence, ascending by Pre within a coordinate.
	occ []Occurrence
}

// Profile is the binary branch representation of one tree: its branch
// vector BRV_q(T) plus, for each non-zero dimension, the positions of the
// branch's occurrences sorted by preorder position. It is a view over a
// flat store; profiles built from the same Space are directly comparable.
type Profile struct {
	// Size is |T|, the node count of the profiled tree. For every q the
	// total branch count equals |T| (one branch rooted at each node); a
	// QueryProfile's coordinates may sum to less, see there.
	Size int

	f      *flat
	lo, hi uint32 // coordinate range in f.dims
}

// Q returns the branch level the profile was built at.
func (p *Profile) Q() int { return p.f.space.q }

// Space returns the branch space the profile belongs to.
func (p *Profile) Space() *Space { return p.f.space }

// NonZero returns the number of distinct branches of the tree that have a
// dimension in the space.
func (p *Profile) NonZero() int { return int(p.hi - p.lo) }

// Dims returns the profile's non-zero dimensions in ascending order. The
// slice is shared; callers must not modify it.
func (p *Profile) Dims() []vector.Dim { return p.f.dims[p.lo:p.hi] }

// Count returns the number of occurrences of the i-th non-zero dimension.
func (p *Profile) Count(i int) int {
	c := p.lo + uint32(i)
	return int(p.f.offs[c+1] - p.f.offs[c])
}

// Occurrences returns the positions of the i-th non-zero dimension's
// occurrences in ascending preorder position. The slice is shared.
func (p *Profile) Occurrences(i int) []Occurrence {
	c := p.lo + uint32(i)
	return p.f.occ[p.f.offs[c]:p.f.offs[c+1]]
}

// visit enumerates the q-level binary branches of t in preorder of the
// original tree, calling fn once per original node with the branch's
// encoded key and the node's 1-based preorder and postorder positions. The
// key bytes are only valid during the call. It returns |T|.
func (s *Space) visit(t *tree.Tree, fn func(key []byte, pre, post int32)) int {
	bt := btree.Normalized(t)
	size := 0

	window := make([]string, 0, s.WindowLen())
	var key []byte
	var emit func(n *btree.Node, levels int)
	emit = func(n *btree.Node, levels int) {
		if levels == 0 {
			return
		}
		if n == nil || n.Epsilon {
			window = append(window, labels.EpsilonString)
			emit(nil, levels-1)
			emit(nil, levels-1)
			return
		}
		window = append(window, n.Label)
		emit(n.Left, levels-1)
		emit(n.Right, levels-1)
	}

	// Visit original nodes in preorder of B(T) — which equals preorder of
	// T — so per-branch occurrence sequences come out sorted by Pre.
	var walk func(n *btree.Node)
	walk = func(n *btree.Node) {
		if n == nil || n.Epsilon {
			return
		}
		size++
		window = window[:0]
		emit(n, s.q)
		key = appendKey(key[:0], window)
		fn(key, int32(n.Pre), int32(n.Post))
		walk(n.Left)
		walk(n.Right)
	}
	walk(bt.Root)
	return size
}

// Branches enumerates the q-level binary branches of t in preorder of the
// original tree, calling fn once per original node with the branch's
// interned dimension and the node's 1-based preorder and postorder
// positions. It returns |T|. Occurrences arrive in ascending preorder
// position, which is the order Algorithm 1 appends them to the inverted
// lists in.
//
// Complexity: O(|T| · 2^q) time.
func (s *Space) Branches(t *tree.Tree, fn func(d vector.Dim, pre, post int32)) int {
	return s.visit(t, func(key []byte, pre, post int32) {
		fn(s.intern(key), pre, post)
	})
}

// rawOcc is one branch occurrence before grouping by dimension: the
// dimension and preorder position packed into one sortable key (preorder
// positions are unique within a tree, so the keys are too).
type rawOcc struct {
	key  uint64 // dim<<32 | pre
	post int32
}

// profiler appends profiles to one flat store, reusing its scratch space
// from tree to tree. Not safe for concurrent use.
type profiler struct {
	s   *Space
	f   *flat
	raw []rawOcc
}

// add profiles t onto the end of the store. With lookup set, branches the
// space has never seen are counted in Size but get no coordinate, and the
// space is left untouched.
func (pr *profiler) add(t *tree.Tree, lookup bool) Profile {
	s, f := pr.s, pr.f
	pr.raw = pr.raw[:0]
	size := s.visit(t, func(key []byte, pre, post int32) {
		var d vector.Dim
		if lookup {
			var ok bool
			if d, ok = s.lookup(key); !ok {
				return
			}
		} else {
			d = s.intern(key)
		}
		pr.raw = append(pr.raw, rawOcc{key: uint64(d)<<32 | uint64(uint32(pre)), post: post})
	})
	slices.SortFunc(pr.raw, func(a, b rawOcc) int { return cmp.Compare(a.key, b.key) })

	if len(f.offs) == 0 {
		f.offs = append(f.offs, 0)
	}
	lo := uint32(len(f.dims))
	for i, r := range pr.raw {
		d := vector.Dim(r.key >> 32)
		if i == 0 || d != f.dims[len(f.dims)-1] {
			if i > 0 {
				f.offs = append(f.offs, uint32(len(f.occ)))
			}
			f.dims = append(f.dims, d)
		}
		f.occ = append(f.occ, Occurrence{Pre: int32(uint32(r.key)), Post: r.post})
	}
	if len(pr.raw) > 0 {
		f.offs = append(f.offs, uint32(len(f.occ)))
	}
	return Profile{Size: size, f: f, lo: lo, hi: uint32(len(f.dims))}
}

// clip drops the spare capacity append growth left behind, so a long-lived
// store costs exactly what it holds.
func (f *flat) clip() {
	f.dims = clipped(f.dims)
	f.offs = clipped(f.offs)
	f.occ = clipped(f.occ)
}

func clipped[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return slices.Clone(s)
}

// Profile computes the q-level binary branch profile of t, interning any
// previously unseen branches into the space.
//
// Complexity: O(|T| · 2^q) time; O(distinct branches + |T|) space.
func (s *Space) Profile(t *tree.Tree) *Profile {
	return s.single(t, false)
}

// QueryProfile profiles a query tree without growing the space: a branch
// the space has never interned occurs in no profiled tree, so it can match
// nothing and needs no dimension — it only counts toward Size. Every
// distance and bound between a query profile and a profile built by
// Profile equals what interning the query would have given; two query
// profiles are not comparable with each other (a branch unknown to both
// would wrongly count as a mismatch).
func (s *Space) QueryProfile(t *tree.Tree) *Profile {
	return s.single(t, true)
}

func (s *Space) single(t *tree.Tree, lookup bool) *Profile {
	pr := profiler{s: s, f: &flat{space: s}}
	p := pr.add(t, lookup)
	pr.f.clip()
	return &p
}

// ProfileAll profiles every tree of a dataset in order.
func (s *Space) ProfileAll(ts []*tree.Tree) []*Profile {
	return s.ProfileAllParallel(ts, 1)
}

// ProfileAllParallel profiles a dataset with the given number of workers
// (≤ 0 means GOMAXPROCS). Each worker profiles one contiguous block of the
// dataset into one flat store, so neighbouring trees are neighbours in
// memory. The space's interner is safe for concurrent use, and dimension
// assignment stays deterministic-per-space only in the sense that equal
// branches get equal dimensions; the dimension *numbering* may differ
// between runs, which never affects any distance.
func (s *Space) ProfileAllParallel(ts []*tree.Tree, workers int) []*Profile {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(ts)))
	views := make([]Profile, len(ts))
	block := func(w int) {
		lo, hi := w*len(ts)/workers, (w+1)*len(ts)/workers
		nodes := 0
		for _, t := range ts[lo:hi] {
			nodes += t.Size()
		}
		pr := profiler{s: s, f: &flat{space: s, occ: make([]Occurrence, 0, nodes)}}
		for i := lo; i < hi; i++ {
			views[i] = pr.add(ts[i], false)
		}
		pr.f.clip()
	}
	if workers == 1 {
		block(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				block(w)
			}(w)
		}
		wg.Wait()
	}
	out := make([]*Profile, len(ts))
	for i := range views {
		out[i] = &views[i]
	}
	return out
}

// sameSpace panics unless the two profiles were built from one Space;
// vectors from different spaces use unrelated dimension numbering and any
// distance between them would be meaningless.
func sameSpace(a, b *Profile) {
	if a.f.space != b.f.space {
		panic("branch: profiles from different spaces are not comparable")
	}
}
