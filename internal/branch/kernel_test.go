package branch

import (
	"fmt"
	"testing"

	"treesim/internal/btree"
	"treesim/internal/datagen"
	"treesim/internal/dblp"
	"treesim/internal/tree"
)

// branchAt is one enumerated binary branch: its key text and the 1-based
// preorder and postorder position of the node it is rooted at.
type branchAt struct {
	key       string
	pre, post int32
}

// refBranches is the paper's construction, kept as the kernel's reference:
// build the ε-normalized binary tree B(T) of Section 2.3 as pointers, and
// read the q-level window off every original node in preorder.
func refBranches(t *tree.Tree, q int) []branchAt {
	var out []branchAt
	var window func(key []byte, n *btree.Node, levels int) []byte
	window = func(key []byte, n *btree.Node, levels int) []byte {
		if levels == 0 {
			return key
		}
		if n == nil || n.Epsilon {
			key = appendLabel(key, epsilon)
			return window(window(key, nil, levels-1), nil, levels-1)
		}
		key = appendLabel(key, n.Label)
		return window(window(key, n.Left, levels-1), n.Right, levels-1)
	}
	var walk func(n *btree.Node)
	walk = func(n *btree.Node) {
		if n == nil || n.Epsilon {
			return
		}
		out = append(out, branchAt{string(window(nil, n, q)), int32(n.Pre), int32(n.Post)})
		walk(n.Left)
		walk(n.Right)
	}
	walk(btree.Normalized(t).Root)
	return out
}

// kernelBranches is the same sequence read off the kernel's arrays.
func kernelBranches(t *tree.Tree, q int) []branchAt {
	var sc scratch
	n := sc.flatten(t)
	out := make([]branchAt, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, branchAt{string(sc.appendWindow(nil, int32(i), q)), int32(i + 1), sc.post[i]})
	}
	return out
}

// checkProfile holds p against the reference enumeration of the tree it
// profiles: the dimensions are exactly the branches known(key) admits, in
// strictly ascending order, and each carries the branch's occurrences in
// ascending preorder position.
func checkProfile(t *testing.T, p *Profile, ref []branchAt, known func(key string) bool) {
	t.Helper()
	if p.Size != len(ref) {
		t.Fatalf("Size %d, reference %d", p.Size, len(ref))
	}
	want := map[string][]Occurrence{}
	for _, b := range ref {
		if known(b.key) {
			want[b.key] = append(want[b.key], Occurrence{Pre: b.pre, Post: b.post})
		}
	}
	if p.NonZero() != len(want) {
		t.Fatalf("%d dimensions, reference %d", p.NonZero(), len(want))
	}
	for i, d := range p.Dims() {
		if i > 0 && d <= p.Dims()[i-1] {
			t.Fatalf("dimensions not strictly ascending: %v", p.Dims())
		}
		key := p.Space().Key(d)
		if got, w := fmt.Sprint(p.Occurrences(i)), fmt.Sprint(want[key]); got != w || p.Count(i) != len(want[key]) {
			t.Fatalf("branch %q: count %d, occurrences %s, reference %s", key, p.Count(i), got, w)
		}
	}
}

// checkKernel runs the whole comparison for one tree: the enumeration, the
// interning Profile against a fresh space (whose dimensions must be
// numbered in order of first sight), and QueryProfile against a space that
// knows only some of the tree's branches.
func checkKernel(t *testing.T, tr *tree.Tree) {
	t.Helper()
	for q := 2; q <= 4; q++ {
		ref, got := refBranches(tr, q), kernelBranches(tr, q)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("q=%d %s:\n kernel    %v\n reference %v", q, tr, got, ref)
		}

		s := NewSpace(q)
		p := s.Profile(tr)
		checkProfile(t, p, ref, func(string) bool { return true })
		seen := 0
		for _, b := range ref {
			d, ok := s.ids[b.key]
			if !ok || int(d) > seen {
				t.Fatalf("q=%d %s: branch %q has dimension %d (known %v) after %d distinct branches", q, tr, b.key, d, ok, seen)
			}
			if int(d) == seen {
				seen++
			}
		}
		if s.Size() != seen {
			t.Fatalf("q=%d %s: space holds %d branches, the tree has %d", q, tr, s.Size(), seen)
		}
		n := 0
		s.Branches(tr, func(d Dim, pre, post int32) {
			if b := ref[n]; s.Key(d) != b.key || pre != b.pre || post != b.post {
				t.Fatalf("q=%d %s: Branches[%d] = (%q, %d, %d), reference %v", q, tr, n, s.Key(d), pre, post, b)
			}
			n++
		})

		// A space that has seen every other branch of the tree only.
		part := NewSpace(q)
		for i, b := range ref {
			if i%2 == 0 {
				part.intern([]byte(b.key))
			}
		}
		vocab := part.Size()
		qp := part.QueryProfile(tr)
		if part.Size() != vocab {
			t.Fatalf("q=%d %s: QueryProfile grew the space %d -> %d", q, tr, vocab, part.Size())
		}
		checkProfile(t, qp, ref, func(key string) bool { _, ok := part.ids[key]; return ok })
	}
}

func shapeTrees() []*tree.Tree {
	node := func(i int) *tree.Node { return &tree.Node{Label: string(rune('a' + i%3))} }
	ts := []*tree.Tree{tree.New(nil), tree.New(node(0))}
	for _, n := range []int{2, 3, 7, 40} {
		chain, star := node(0), node(0)
		left, right := node(0), node(0) // caterpillars: a spine with a leaf at every joint
		c, l, r := chain, left, right
		for i := 1; i < n; i++ {
			c.Children = []*tree.Node{node(i)}
			c = c.Children[0]
			star.Children = append(star.Children, node(i))
			l.Children = []*tree.Node{node(i), node(i + 1)}
			l = l.Children[0]
			r.Children = []*tree.Node{node(i + 1), node(i)}
			r = r.Children[1]
		}
		ts = append(ts, tree.New(chain), tree.New(star), tree.New(left), tree.New(right))
	}
	// Labels the key encoding must keep apart, a real node labeled like ε
	// among them.
	ts = append(ts, tree.MustParse("a(b(c,d),b(c,d),e)"),
		tree.New(tree.NewNode("", tree.NewNode("1:a"), tree.NewNode(epsilon, tree.NewNode("")), tree.NewNode("a:"))))
	return ts
}

// TestKernelMatchesBinaryTree: profiling straight off the flattened tree
// gives what the definition over B(T) gives, branch by branch and profile
// by profile, at q = 2, 3, 4.
func TestKernelMatchesBinaryTree(t *testing.T) {
	for _, tr := range shapeTrees() {
		checkKernel(t, tr)
	}
	spec, err := datagen.ParseSpec("N{3,1.5}N{30,12}L6D0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range datagen.New(spec, 5).Dataset(300, 30) {
		checkKernel(t, tr)
	}
	for _, tr := range dblp.New(5).Dataset(200) {
		checkKernel(t, tr)
	}
}

// TestBlockNumbering: one worker numbers a dataset's dimensions in order of
// first sight, tree by tree in preorder, and every profile of the block
// matches the reference; any number of workers gives the same profiles up
// to that numbering.
func TestBlockNumbering(t *testing.T) {
	ts := dblp.New(9).Dataset(300)
	s := NewSpace(2)
	ps := s.ProfileAll(ts)
	var order []string
	first := map[string]bool{}
	for i, tr := range ts {
		ref := refBranches(tr, 2)
		checkProfile(t, ps[i], ref, func(string) bool { return true })
		for _, b := range ref {
			if !first[b.key] {
				first[b.key] = true
				order = append(order, b.key)
			}
		}
	}
	if s.Size() != len(order) {
		t.Fatalf("space holds %d branches, the dataset has %d", s.Size(), len(order))
	}
	for d, key := range order {
		if s.Key(Dim(d)) != key {
			t.Fatalf("dimension %d is %q, first-seen order says %q", d, s.Key(Dim(d)), key)
		}
	}
	par := NewSpace(2)
	for i, p := range par.ProfileAllParallel(ts, 4) {
		checkProfile(t, p, refBranches(ts[i], 2), func(string) bool { return true })
	}
}

// fuzzTree decodes at most 64 nodes: each byte names a label and how many
// levels to climb before attaching the node as the last child.
func fuzzTree(data []byte) *tree.Tree {
	names := [...]string{"a", "b", "c", "", epsilon, "1:a", "a:", "bb"}
	if len(data) == 0 {
		return tree.New(nil)
	}
	data = data[:min(len(data), 64)]
	path := []*tree.Node{{Label: names[data[0]%8]}}
	for _, b := range data[1:] {
		path = path[:max(1, len(path)-int(b>>3)%8)]
		n := &tree.Node{Label: names[b%8]}
		top := path[len(path)-1]
		top.Children = append(top.Children, n)
		path = append(path, n)
	}
	return tree.New(path[0])
}

func FuzzProfileKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})               // a chain over every label
	f.Add([]byte{0, 1, 9, 10, 11, 12, 13, 14, 15})      // a star
	f.Add([]byte{0, 1, 2, 8 + 3, 16 + 4, 5, 24 + 6, 7}) // mixed climbs
	f.Fuzz(func(t *testing.T, data []byte) { checkKernel(t, fuzzTree(data)) })
}

// TestProfileAllocs: a warm block profiler adds a tree without allocating,
// and a single profile allocates its result and nothing else.
func TestProfileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	spec, err := datagen.ParseSpec("N{4,0.5}N{50,2}L8D0.05")
	if err != nil {
		t.Fatal(err)
	}
	ts := datagen.New(spec, 2).Dataset(40, 4)
	s := NewSpace(2)
	s.ProfileAll(ts)
	tr := ts[7]

	// The store has room for every add of the run (AllocsPerRun makes
	// runs+1 calls), as a block's has once room has extrapolated.
	const runs = 50
	pr := profiler{s: s, sc: new(scratch), total: runs + 2, f: &flat{
		space: s,
		dims:  make([]Dim, 0, (runs+2)*64),
		offs:  make([]uint32, 0, (runs+2)*64),
		occ:   make([]Occurrence, 0, (runs+2)*64),
	}}
	pr.add(tr, false)
	if n := testing.AllocsPerRun(runs, func() { pr.add(tr, false) }); n != 0 {
		t.Errorf("warm block profiler: %v allocations per tree, want 0", n)
	}
	for name, profile := range map[string]func(*tree.Tree) *Profile{"Profile": s.Profile, "QueryProfile": s.QueryProfile} {
		profile(tr)
		if n := testing.AllocsPerRun(runs, func() { profile(tr) }); n > 5 {
			t.Errorf("%s of a %d-node tree: %v allocations, want ≤ 5", name, tr.Size(), n)
		}
	}
}
