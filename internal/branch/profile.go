package branch

import (
	"runtime"
	"slices"
	"sync"

	"treesim/internal/tree"
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
	dims []Dim
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
func (p *Profile) Dims() []Dim { return p.f.dims[p.lo:p.hi] }

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

// scratch is the profiling kernel's reusable working memory: one tree
// flattened to parallel arrays indexed by 0-based preorder position. first
// and next are the left and right child links of the binary tree
// representation B(T) (Section 2.3) with −1 standing for ε, so a branch
// window is read off by index and B(T) itself is never built.
type scratch struct {
	label []string
	first []int32 // first child in T: left child in B(T)
	next  []int32 // next sibling in T: right child in B(T)
	post  []int32 // 1-based postorder position in T
	dim   []Dim
	stack []frame
	miss  []int32  // nodes whose branch the read-locked pass did not find
	key   []byte   // one rendered branch key
	keys  []uint64 // dim<<32 | 1-based preorder position, sorted
}

// frame is an inner node whose children the flatten pass is still visiting.
type frame struct {
	n    *tree.Node
	at   int32 // n's index
	last int32 // index of the child visited last
	kid  int   // next child to visit
}

// noDim marks a node whose branch has no dimension in the space.
const noDim = ^Dim(0)

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledNodes is the largest tree whose scratch release returns to the
// pool: one giant query must not leave its megabytes under every later one.
const maxPooledNodes = 1 << 16

func (sc *scratch) release() {
	if cap(sc.label) <= maxPooledNodes {
		scratchPool.Put(sc)
	}
}

// push appends a node with no links yet and returns its index.
func (sc *scratch) push(n *tree.Node) int32 {
	sc.label = append(sc.label, n.Label)
	sc.first = append(sc.first, -1)
	sc.next = append(sc.next, -1)
	sc.post = append(sc.post, 0)
	return int32(len(sc.label) - 1)
}

// flatten loads t into the arrays in one preorder pass and returns |T|. The
// pass keeps its own stack, so its depth costs heap, not goroutine stack.
func (sc *scratch) flatten(t *tree.Tree) int {
	sc.label, sc.first, sc.next, sc.post = sc.label[:0], sc.first[:0], sc.next[:0], sc.post[:0]
	if t.IsEmpty() {
		return 0
	}
	post := int32(0)
	sc.stack = append(sc.stack[:0], frame{n: t.Root, at: sc.push(t.Root)})
	for len(sc.stack) > 0 {
		f := &sc.stack[len(sc.stack)-1]
		if f.kid == len(f.n.Children) {
			post++
			sc.post[f.at] = post
			sc.stack = sc.stack[:len(sc.stack)-1]
			continue
		}
		c := f.n.Children[f.kid]
		at := sc.push(c)
		if f.kid == 0 {
			sc.first[f.at] = at
		} else {
			sc.next[f.last] = at
		}
		f.kid, f.last = f.kid+1, at
		if len(c.Children) == 0 {
			post++
			sc.post[at] = post
		} else {
			sc.stack = append(sc.stack, frame{n: c, at: at})
		}
	}
	return len(sc.label)
}

// appendWindow appends the key of the perfect binary tree with the given
// number of levels rooted at node i of B(T), in preorder, ε-padded below
// the leaves (Definition 5). The recursion is levels deep.
func (sc *scratch) appendWindow(dst []byte, i int32, levels int) []byte {
	if i < 0 {
		for n := 1<<uint(levels) - 1; n > 0; n-- {
			dst = appendLabel(dst, epsilon)
		}
		return dst
	}
	dst = appendLabel(dst, sc.label[i])
	if levels == 1 {
		return dst
	}
	dst = sc.appendWindow(dst, sc.first[i], levels-1)
	return sc.appendWindow(dst, sc.next[i], levels-1)
}

// resolve fills sc.dim with the dimension of the branch rooted at each of
// the n flattened nodes, in one pass under the space's read lock. What that
// pass misses is interned in preorder under the write lock, or with lookup
// set left at noDim and the space untouched.
func (s *Space) resolve(sc *scratch, n int, lookup bool) {
	sc.dim, sc.miss = slices.Grow(sc.dim[:0], n)[:n], sc.miss[:0]
	s.mu.RLock()
	for i := range sc.dim {
		sc.key = sc.appendWindow(sc.key[:0], int32(i), s.q)
		d, ok := s.ids[string(sc.key)]
		if !ok {
			d = noDim
			sc.miss = append(sc.miss, int32(i))
		}
		sc.dim[i] = d
	}
	s.mu.RUnlock()
	if lookup || len(sc.miss) == 0 {
		return
	}
	s.mu.Lock()
	for _, i := range sc.miss {
		sc.key = sc.appendWindow(sc.key[:0], i, s.q)
		sc.dim[i] = s.intern(sc.key)
	}
	s.mu.Unlock()
}

// Branches enumerates the q-level binary branches of t in preorder of the
// original tree, calling fn once per original node with the branch's
// interned dimension and the node's 1-based preorder and postorder
// positions. It returns |T|. Occurrences arrive in ascending preorder
// position, which is the order Algorithm 1 appends them to the inverted
// lists in.
//
// Complexity: O(|T| · 2^q) time.
func (s *Space) Branches(t *tree.Tree, fn func(d Dim, pre, post int32)) int {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	n := sc.flatten(t)
	s.resolve(sc, n, false)
	for i, d := range sc.dim {
		fn(d, int32(i+1), sc.post[i])
	}
	return n
}

// profiler appends the profiles of a block of trees to one flat store,
// reusing one scratch from tree to tree. Not safe for concurrent use.
type profiler struct {
	s           *Space
	f           *flat
	sc          *scratch
	done, total int // trees added so far, trees the block will hold
}

// add profiles t onto the end of the store. With lookup set, branches the
// space has never seen are counted in Size but get no coordinate, and the
// space is left untouched.
func (pr *profiler) add(t *tree.Tree, lookup bool) Profile {
	s, f, sc := pr.s, pr.f, pr.sc
	size := sc.flatten(t)
	s.resolve(sc, size, lookup)
	sc.keys = sc.keys[:0]
	for i, d := range sc.dim {
		if d != noDim {
			sc.keys = append(sc.keys, uint64(d)<<32|uint64(i+1))
		}
	}
	slices.Sort(sc.keys)
	coords := 0
	for i, k := range sc.keys {
		if i == 0 || k>>32 != sc.keys[i-1]>>32 {
			coords++
		}
	}

	pr.done++
	f.dims = room(f.dims, coords, pr.done, pr.total)
	f.offs = room(f.offs, coords+1, pr.done, pr.total)
	f.occ = room(f.occ, len(sc.keys), pr.done, pr.total)
	if len(f.offs) == 0 {
		f.offs = append(f.offs, 0)
	}
	lo := uint32(len(f.dims))
	for i, k := range sc.keys {
		if i == 0 || k>>32 != sc.keys[i-1]>>32 {
			if i > 0 {
				f.offs = append(f.offs, uint32(len(f.occ)))
			}
			f.dims = append(f.dims, Dim(k>>32))
		}
		pre := int32(uint32(k))
		f.occ = append(f.occ, Occurrence{Pre: pre, Post: sc.post[pre-1]})
	}
	if len(sc.keys) > 0 {
		f.offs = append(f.offs, uint32(len(f.occ)))
	}
	return Profile{Size: size, f: f, lo: lo, hi: uint32(len(f.dims))}
}

// room returns s with capacity for n more elements. A new array is a
// quarter larger than needed, or, once enough trees are done (this one
// included) for their mean to stand for the block's, the size extrapolated
// for the whole block plus 1/64: a block of like trees then gets each array
// about once and about exactly, and trees sorted by size still cost only
// amortised growth. The last tree of a block, so any single profile, gets
// exactly what it needs.
func room[T any](s []T, n, done, total int) []T {
	need := len(s) + n
	if need <= cap(s) {
		return s
	}
	if done < total {
		need += need / 4
		if done >= 64 {
			whole := uint64(len(s)+n) * uint64(total) / uint64(done)
			need = max(need, int(whole+whole/64))
		}
	}
	return append(make([]T, 0, need), s...)
}

// clip drops spare capacity beyond the 1/32 that is cheaper to keep than
// to copy the store for, so a long-lived store costs about what it holds.
func (f *flat) clip() {
	f.dims = clipped(f.dims)
	f.offs = clipped(f.offs)
	f.occ = clipped(f.occ)
}

func clipped[T any](s []T) []T {
	if cap(s)-len(s) <= len(s)/32 {
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

// LabelCount is one label of a tree and how many of its nodes carry it.
type LabelCount struct {
	Label Label
	Count int32
}

// QueryLabels appends to dst the label histogram of t, ascending by label,
// over the labels the space has interned, and leaves the space untouched.
// It counts every node of t, whether or not the branch rooted there has a
// dimension: a query branch the space never saw can still be rooted at a
// label it knows, and that node can still match a node of a profiled tree.
// Counting a QueryProfile's coordinates instead would miss those nodes. A
// label left out — one no dimension had at the last Roots call — is carried
// by no tree an inverted file was built over, so for those trees it can
// match nothing.
func (s *Space) QueryLabels(t *tree.Tree, dst []LabelCount) []LabelCount {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	sc.flatten(t)
	sc.keys = sc.keys[:0]
	s.mu.RLock()
	for _, l := range sc.label {
		if id, ok := s.labelIDs[l]; ok {
			sc.keys = append(sc.keys, uint64(id))
		}
	}
	s.mu.RUnlock()
	slices.Sort(sc.keys)
	for i, k := range sc.keys {
		if i == 0 || k != sc.keys[i-1] {
			dst = append(dst, LabelCount{Label: Label(k)})
		}
		dst[len(dst)-1].Count++
	}
	return dst
}

// QuerySequences returns the label ids of t's nodes in postorder and in
// preorder, numbered as Roots numbers labels, and leaves the space
// untouched: the query side of Guha et al.'s sequence bound, whose other
// side a profiled tree reads off its profile (LabelSequence). A label
// Roots has not numbered gets −1: no tree profiled before that call
// carries it, so it can match no node of those trees, and −1 matches no id.
func (s *Space) QuerySequences(t *tree.Tree) (post, pre []int32) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	n := sc.flatten(t)
	post, pre = make([]int32, n), make([]int32, n)
	s.mu.RLock()
	for i, l := range sc.label {
		id := int32(-1)
		if v, ok := s.labelIDs[l]; ok {
			id = int32(v)
		}
		pre[i], post[sc.post[i]-1] = id, id
	}
	s.mu.RUnlock()
	return post, pre
}

// LabelSequence writes the label ids of the profiled tree's nodes into
// seq[:Size], in preorder or in postorder, off the profile alone: every
// node roots exactly one branch, so the occurrences of a profile built by
// Profile place each node once, at its preorder and postorder position,
// under a dimension whose root label is the node's. root is the space's
// Roots, taken after the profile was built. A QueryProfile has no
// coordinate for a branch the space never saw and leaves those nodes'
// entries as they were.
func (p *Profile) LabelSequence(root []Label, seq []int32, preorder bool) {
	for c := p.lo; c < p.hi; c++ {
		id := int32(root[p.f.dims[c]])
		for _, o := range p.f.occ[p.f.offs[c]:p.f.offs[c+1]] {
			at := o.Post
			if preorder {
				at = o.Pre
			}
			seq[at-1] = id
		}
	}
}

// single profiles one tree into a store of its own, of exactly its size.
func (s *Space) single(t *tree.Tree, lookup bool) *Profile {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	one := &struct {
		Profile
		flat
	}{flat: flat{space: s}}
	pr := profiler{s: s, f: &one.flat, sc: sc, total: 1}
	one.Profile = pr.add(t, lookup)
	return &one.Profile
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
// between runs, which never affects any distance. With one worker it is
// the order branches are first seen in, tree by tree in preorder.
func (s *Space) ProfileAllParallel(ts []*tree.Tree, workers int) []*Profile {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(ts)))
	views := make([]Profile, len(ts))
	block := func(w int) {
		lo, hi := w*len(ts)/workers, (w+1)*len(ts)/workers
		pr := profiler{s: s, f: &flat{space: s}, sc: new(scratch), total: hi - lo}
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
