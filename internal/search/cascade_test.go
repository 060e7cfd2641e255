package search

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/dblp"
	"treesim/internal/editdist"
	"treesim/internal/obs"
	"treesim/internal/tree"
)

// labelHist is t's label histogram, counted node by node.
func labelHist(t *tree.Tree) map[string]int {
	h := map[string]int{}
	t.Walk(func(n *tree.Node) bool {
		h[n.Label]++
		return true
	})
	return h
}

// labelBound is Kailing's bound ⌈L1/2⌉ for two trees of sizes a and b whose
// label overlap is at most ov: L1 ≥ a + b − 2·ov.
func labelBound(a, b, ov int) int { return max(0, (a+b-2*ov+1)/2) }

// exactLabels is the label bound over the exact overlap Σ min(q_l, t_l) of
// the query with every visible tree: the tightest any label sweep can be.
func exactLabels(trees map[int]*tree.Tree, q *tree.Tree) map[int]int {
	qh := labelHist(q)
	out := make(map[int]int, len(trees))
	for id, t := range trees {
		ov := 0
		for l, tc := range labelHist(t) {
			ov += min(qh[l], tc)
		}
		out[id] = labelBound(q.Size(), t.Size(), ov)
	}
	return out
}

// sweptLabels is the label tier by its definition, for every tree of every
// segment of the index's cut, tombstoned ones included: a label carried by
// more than half of a swept segment's trees credits each carrier with the
// query's full count of it, any other label min(q_l, t_l); a segment
// without postings (the memtable) credits every label min(q_l, t_l).
func sweptLabels(ix *Index, q *tree.Tree) map[int]int {
	qh := labelHist(q)
	out := map[int]int{}
	for _, sg := range ix.cut().segs {
		p := payloadOf(sg)
		hs := make([]map[string]int, len(p.trees))
		carriers := map[string]int{}
		for i, t := range p.trees {
			hs[i] = labelHist(t)
			for l := range hs[i] {
				carriers[l]++
			}
		}
		swept := p.post != nil
		for i, t := range p.trees {
			ov := 0
			for l, tc := range hs[i] {
				if swept && 2*carriers[l] > len(p.trees) {
					ov += qh[l]
				} else {
					ov += min(qh[l], tc)
				}
			}
			out[sg.ID(i)] = labelBound(q.Size(), t.Size(), ov)
		}
	}
	return out
}

// exactTier is the exact label tier by its definition, ⌈L1/2⌉ over
// Σ_l min(q_l, t_l), for every tree of every segment of the index's cut,
// tombstoned ones included.
func exactTier(ix *Index, q *tree.Tree) map[int]int {
	trees := map[int]*tree.Tree{}
	for _, sg := range ix.cut().segs {
		for i, t := range payloadOf(sg).trees {
			trees[sg.ID(i)] = t
		}
	}
	return exactLabels(trees, q)
}

// bruteKNN answers a k-NN query by Algorithm 2 over every visible tree's
// key max(SearchLBound, label[id]) — the positional bound alone when label
// is nil: a sort by (key, id), then sequential verification under the live
// k-th-best cutoff of every tree whose sequence bound (Guha et al., off
// the trees themselves) does not exceed the cutoff. The positional bound
// dominates the size and BDist tiers, so this is the engine's tightened
// key. It returns the results, the candidate count, how many trees it
// verified and the funnel: each tree charged, against the final k-th
// distance, to the first of ||q|−|t||, ⌈BDist/Factor⌉, label[id],
// SearchLBound and the sequence bound that exceeds it.
func bruteKNN(trees map[int]*tree.Tree, q *tree.Tree, k int, label map[int]int) (res []Result, candidates, verified int, pruned Funnel) {
	s := branch.NewSpace(2)
	qp := s.Profile(q)
	type bounded struct {
		id, size, bdist, slb, seq, bound int
	}
	var order []bounded
	for id, t := range trees {
		tp := s.Profile(t)
		slb := branch.SearchLBound(qp, tp)
		order = append(order, bounded{id, max(qp.Size-tp.Size, tp.Size-qp.Size), branch.BDistLowerBound(qp, tp), slb,
			editdist.SequenceLowerBound(q, t), max(slb, label[id])})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].bound != order[j].bound {
			return order[i].bound < order[j].bound
		}
		return order[i].id < order[j].id
	})
	k = min(k, len(order))
	cutoff := math.MaxInt
	for _, o := range order {
		if o.bound > cutoff {
			break
		}
		if o.seq > cutoff {
			continue
		}
		verified++
		d, within := editdist.DistanceWithin(q, trees[o.id], cutoff)
		if !within {
			continue
		}
		res = append(res, Result{ID: o.id, Dist: d})
		sortResults(res)
		if len(res) >= k {
			res = res[:k]
			cutoff = res[k-1].Dist
		}
	}
	if len(res) == 0 {
		return res, 0, verified, pruned
	}
	worst := res[len(res)-1].Dist
	for _, o := range order {
		switch {
		case o.size > worst:
			pruned.Size++
		case o.bdist > worst:
			pruned.BDist++
		case label[o.id] > worst:
			pruned.Label++
		case o.slb > worst:
			pruned.Positional++
		case o.seq > worst:
			pruned.Sequence++
		default:
			candidates++
		}
	}
	return res, candidates, verified, pruned
}

// bruteRange is the same for a range query: every visible tree goes
// through the cascade's tiers computed in full — ||q|−|t||, ⌈BDist/Factor⌉,
// label[id] (none when label is nil), RangeLowerBound, then the sequence
// bound — and is charged to the first whose bound exceeds tau; every
// candidate is verified.
func bruteRange(trees map[int]*tree.Tree, q *tree.Tree, tau int, label map[int]int) (res []Result, candidates int, pruned Funnel) {
	s := branch.NewSpace(2)
	qp := s.Profile(q)
	for id, t := range trees {
		tp := s.Profile(t)
		switch {
		case max(qp.Size-tp.Size, tp.Size-qp.Size) > tau:
			pruned.Size++
			continue
		case branch.BDistLowerBound(qp, tp) > tau:
			pruned.BDist++
			continue
		case label[id] > tau:
			pruned.Label++
			continue
		case branch.RangeLowerBound(qp, tp, tau) > tau:
			pruned.Positional++
			continue
		case editdist.SequenceLowerBound(q, t) > tau:
			pruned.Sequence++
			continue
		}
		candidates++
		if d := fullDistance(q, t); d <= tau {
			res = append(res, Result{ID: id, Dist: d})
		}
	}
	sortResults(res)
	return res, candidates, pruned
}

// TestCascadeMatchesFullBoundScan: the bound cascade — size, BDist and
// swept label tiers that stop at tau for a range query, the exact label
// tier and the positional bound for survivors only, both read lazily for
// k-NN — answers exactly like a scan that computes, for every tree, the
// positional bound and the exact label tier by its definition: same
// results, same candidate count and the same verifications, on every
// storage layout (one indexed segment, sealed memtables and a live
// memtable, a compacted segment, a reloaded snapshot) with and without
// tombstones. Its candidates are those of a scan over the exact label bound
// on every tree, and at most those of one over the positional bound alone.
// Every segment's BDist and label tiers read the columns the sweep or the
// memtable's fill left, which checkSwept holds to the merge-join and to
// both label tiers' definitions tree by tree; stars of 40 and 17 identical
// leaves put saturated counts in the postings. The funnel accounts for every tree the filter dropped, and both
// query kinds charge each tree to the same tier the full scan does.
func TestCascadeMatchesFullBoundScan(t *testing.T) {
	const n = 70
	all := testDataset(n, 91)
	all[7], all[24], all[52] = star(40), star(17), star(3)
	layouts := map[string]func(opts []IndexOption) *Index{
		"one-segment": func(opts []IndexOption) *Index { return NewIndex(all, opts...) },
		"segments+memtable": func(opts []IndexOption) *Index {
			ix := NewIndex(all[:20], append(opts, WithMemtableSize(8))...)
			for _, tr := range all[20:] {
				ix.Insert(tr)
			}
			return ix
		},
		"compacted": func(opts []IndexOption) *Index {
			ix := NewIndex(all[:20], append(opts, WithMemtableSize(8))...)
			for _, tr := range all[20:] {
				ix.Insert(tr)
			}
			ix.Seal()
			if !ix.Compact() {
				t.Fatal("compaction did not run")
			}
			return ix
		},
	}
	queries := append([]*tree.Tree{all[0], all[33], all[69], all[7], star(25), unknownBranches, unknownLabels}, testDataset(3, 92)...)
	byLabel, byExact, bySeq := 0, 0, 0

	for lname, build := range layouts {
		for _, deleted := range [][]int{nil, {0, 7, 21, 33, 40, 68}} {
			for _, reload := range []bool{false, true} {
				name := fmt.Sprintf("%s/deleted=%d/reload=%v", lname, len(deleted), reload)
				opts := []IndexOption{NewBiBranch(), WithCompactionThreshold(-1)}
				ix := build(opts)
				visible := make(map[int]*tree.Tree)
				for id, tr := range all {
					visible[id] = tr
				}
				for _, id := range deleted {
					if !ix.Delete(id) {
						t.Fatalf("%s: delete %d refused", name, id)
					}
					delete(visible, id)
				}
				if reload {
					var buf bytes.Buffer
					if err := SaveIndex(&buf, ix); err != nil {
						t.Fatal(err)
					}
					var err error
					if ix, err = LoadIndex(&buf, opts[1:]...); err != nil {
						t.Fatal(err)
					}
				}
				checkSwept(t, name, ix, queries)
				l, e, sq := checkCascade(t, name, ix, visible, queries)
				byLabel, byExact, bySeq = byLabel+l, byExact+e, bySeq+sq
			}
		}
	}
	if byLabel == 0 || byExact == 0 {
		t.Fatalf("the label tiers pruned %d trees, %d of them past the swept bound: the test holds the tiers to nothing", byLabel, byExact)
	}
	if bySeq == 0 {
		t.Fatal("the sequence tier pruned no tree: the test holds it to nothing")
	}
	t.Logf("label tiers pruned %d trees, %d of them past the swept bound; the sequence tier %d", byLabel, byExact, bySeq)
}

// unknownBranches roots every branch at or next to a label no indexed tree
// has, so no branch of it has a dimension, while l1 and l2 are labels the
// trees carry: the label tier must count them all the same.
var unknownBranches = tree.MustParse("fresh0(l1(fresh1),fresh2,l2(fresh3),fresh4)")

// unknownLabels carries no label any indexed tree has.
var unknownLabels = tree.MustParse("fresh0(fresh1,fresh2(fresh3))")

// checkCascade holds one index's k-NN and range answers, counters and
// funnel to the full-bound scans over the visible trees. It returns how
// many trees the label tier pruned, how many of them the swept label bound
// alone would have let through, and how many the sequence tier pruned.
func checkCascade(t *testing.T, name string, ix *Index, visible map[int]*tree.Tree, queries []*tree.Tree) (byLabel, byExact, bySeq int) {
	t.Helper()
	s := branch.NewSpace(2)
	for qi, q := range queries {
		swept, tier, exact := sweptLabels(ix, q), exactTier(ix, q), exactLabels(visible, q)
		qp := s.Profile(q)
		slb, seq := map[int]int{}, map[int]int{}
		for id, tr := range visible {
			slb[id] = branch.SearchLBound(qp, s.Profile(tr))
			seq[id] = editdist.SequenceLowerBound(q, tr)
		}
		for _, k := range []int{1, 5, 12} {
			want, wantCands, wantVerified, wantPruned := bruteKNN(visible, q, k, tier)
			got, st, err := ix.KNN(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: query %d k=%d = %v, want %v", name, qi, k, got, want)
			}
			if st.Candidates != wantCands || st.Verified != wantVerified {
				t.Fatalf("%s: query %d k=%d: candidates %d verified %d, full-bound scan %d / %d",
					name, qi, k, st.Candidates, st.Verified, wantCands, wantVerified)
			}
			worst := want[len(want)-1].Dist
			l1, pos := 0, 0
			for id := range visible {
				if max(slb[id], exact[id], seq[id]) <= worst {
					l1++
				}
				if max(slb[id], seq[id]) <= worst {
					pos++
				}
			}
			if st.Candidates != l1 || st.Candidates > pos {
				t.Fatalf("%s: query %d k=%d: %d candidates, exact-L1 %d, positional-only %d",
					name, qi, k, st.Candidates, l1, pos)
			}
			if sum := st.Pruned.Size + st.Pruned.BDist + st.Pruned.Label + st.Pruned.Positional + st.Pruned.Sequence; sum != st.Dataset-st.Candidates {
				t.Fatalf("%s: query %d k=%d: funnel %+v sums to %d, dataset %d − candidates %d",
					name, qi, k, st.Pruned, sum, st.Dataset, st.Candidates)
			}
			if st.Pruned != wantPruned {
				t.Fatalf("%s: query %d k=%d: funnel %+v, full-bound scan %+v", name, qi, k, st.Pruned, wantPruned)
			}
			_, _, _, sweptPruned := bruteKNN(visible, q, k, swept)
			byLabel += st.Pruned.Label
			byExact += st.Pruned.Label - sweptPruned.Label
			bySeq += st.Pruned.Sequence
		}
		for _, tau := range []int{0, 2, 5} {
			want, wantCands, wantPruned := bruteRange(visible, q, tau, tier)
			got, st, err := ix.Range(context.Background(), q, tau)
			if err != nil {
				t.Fatal(err)
			}
			if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: query %d tau=%d = %v, want %v", name, qi, tau, got, want)
			}
			if st.Candidates != wantCands || st.Verified != wantCands {
				t.Fatalf("%s: query %d tau=%d: candidates %d verified %d, full-bound scan %d",
					name, qi, tau, st.Candidates, st.Verified, wantCands)
			}
			if st.Pruned != wantPruned {
				t.Fatalf("%s: query %d tau=%d: funnel %+v, full-bound scan %+v", name, qi, tau, st.Pruned, wantPruned)
			}
			_, l1, _ := bruteRange(visible, q, tau, exact)
			_, pos, _ := bruteRange(visible, q, tau, nil)
			if st.Candidates != l1 || st.Candidates > pos {
				t.Fatalf("%s: query %d tau=%d: %d candidates, exact-L1 %d, positional-only %d",
					name, qi, tau, st.Candidates, l1, pos)
			}
			_, _, sweptPruned := bruteRange(visible, q, tau, swept)
			byLabel += st.Pruned.Label
			byExact += st.Pruned.Label - sweptPruned.Label
			bySeq += st.Pruned.Sequence
		}
	}
	return byLabel, byExact, bySeq
}

// TestFunnelEveryFilter: whatever the filter, the funnel sums to
// Dataset − Candidates and the sequential scan prunes nothing. On DBLP-like records,
// whose dense labels (author, the record kinds) a query carries several
// times, the k-NN scan prunes trees by the exact label tier when they
// surface to be tightened — their swept keys are within the final k-th
// distance — and charges them to the label tier in the funnel, EXPLAIN
// and the filter span alike; and the sequence tier prunes the variants'
// near misses before verification, in both query kinds, charged alike to
// the sequence tier.
func TestFunnelEveryFilter(t *testing.T) {
	ts := testDataset(80, 93)
	for _, f := range allFilters() {
		ix := NewIndex(ts, f)
		for _, q := range []*tree.Tree{ts[5], ts[61]} {
			_, ks, _ := ix.KNN(context.Background(), q, 4)
			_, rs, _ := ix.Range(context.Background(), q, 3)
			for op, st := range map[string]Stats{"knn": ks, "range": rs} {
				if sum := st.Pruned.Size + st.Pruned.BDist + st.Pruned.Label + st.Pruned.Positional + st.Pruned.Sequence; sum != st.Dataset-st.Candidates {
					t.Errorf("%s %s: funnel %+v sums to %d, want %d", f.Name(), op, st.Pruned, sum, st.Dataset-st.Candidates)
				}
				if f == nil && st.Pruned != (Funnel{}) {
					t.Errorf("%s %s: the sequential scan pruned: %+v", f.Name(), op, st.Pruned)
				}
			}
		}
	}

	g := dblp.New(7)
	records := g.Dataset(400)
	visible := map[int]*tree.Tree{}
	for id, tr := range records {
		visible[id] = tr
	}
	s := branch.NewSpace(2)
	atTighten, bySeq := 0, map[string]int{}
	ix := NewIndex(records, NewBiBranch())
	for qi := 0; qi < 4; qi++ {
		q := g.Variant(records[qi*97])
		root := obs.New("query")
		var ex *Explain
		got, st, err := ix.KNN(obs.NewContext(context.Background(), root), q, 10, WithExplain(&ex))
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		swept, tier := sweptLabels(ix, q), exactTier(ix, q)
		want, _, _, wantPruned := bruteKNN(visible, q, 10, tier)
		if !reflect.DeepEqual(dists(got), dists(want)) || st.Pruned != wantPruned {
			t.Fatalf("dblp query %d: %v with funnel %+v, reference %v with %+v", qi, dists(got), st.Pruned, dists(want), wantPruned)
		}
		worst := want[len(want)-1].Dist
		qp := s.Profile(q)
		for id, tr := range records {
			tp := s.Profile(tr)
			key := max(qp.Size-tp.Size, tp.Size-qp.Size, branch.BDistLowerBound(qp, tp), swept[id])
			if key <= worst && tier[id] > worst {
				atTighten++
			}
		}
		filter, _ := childByName(root.Snapshot(), "filter")
		funnel := fmt.Sprintf(" -label-> %d ", st.Dataset-st.Pruned.Size-st.Pruned.BDist-st.Pruned.Label)
		if ex.Pruned != st.Pruned || filter.Attrs["pruned_label"] != int64(st.Pruned.Label) || !strings.Contains(ex.String(), funnel) {
			t.Fatalf("dblp query %d: funnel %+v, EXPLAIN %+v, span pruned_label %v, rendering lacks %q:\n%s",
				qi, st.Pruned, ex.Pruned, filter.Attrs["pruned_label"], funnel, ex)
		}
		checkSequenceReported(t, fmt.Sprintf("dblp knn query %d", qi), st, ex, filter)
		bySeq["knn"] += st.Pruned.Sequence

		// The range query at the k-th distance less one: the tier
		// prunes near misses there too.
		root = obs.New("query")
		_, rs, err := ix.Range(obs.NewContext(context.Background(), root), q, max(worst-1, 0), WithExplain(&ex))
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		_, _, wantRange := bruteRange(visible, q, max(worst-1, 0), tier)
		if rs.Pruned != wantRange {
			t.Fatalf("dblp range query %d: funnel %+v, reference %+v", qi, rs.Pruned, wantRange)
		}
		filter, _ = childByName(root.Snapshot(), "filter")
		checkSequenceReported(t, fmt.Sprintf("dblp range query %d", qi), rs, ex, filter)
		bySeq["range"] += rs.Pruned.Sequence
	}
	if atTighten == 0 {
		t.Fatal("no DBLP tree was pruned by the exact label tier at tighten time")
	}
	if bySeq["knn"] == 0 || bySeq["range"] == 0 {
		t.Fatalf("the sequence tier pruned %v DBLP trees: the test holds it to nothing", bySeq)
	}
	t.Logf("%d DBLP trees pruned by the exact label tier at tighten time; by the sequence tier %v", atTighten, bySeq)
}

// checkSequenceReported holds EXPLAIN, its rendered funnel line and the
// filter span to one query's funnel, the sequence tier's step included:
// the EXPLAIN funnel equals the stats', the line ends in the candidates
// the sequence tier leaves, and the span's pruned_sequence attribute and
// candidates say the same.
func checkSequenceReported(t *testing.T, name string, st Stats, ex *Explain, filter obs.SpanSnapshot) {
	t.Helper()
	line := fmt.Sprintf(" -positional-> %d -sequence-> %d\n", st.Candidates+st.Pruned.Sequence, st.Candidates)
	if ex.Pruned != st.Pruned || !strings.Contains(ex.String(), line) ||
		filter.Attrs["pruned_sequence"] != int64(st.Pruned.Sequence) || filter.Attrs["candidates"] != int64(st.Candidates) {
		t.Fatalf("%s: funnel %+v with %d candidates, EXPLAIN %+v, span pruned_sequence %v candidates %v, rendering lacks %q:\n%s",
			name, st.Pruned, st.Candidates, ex.Pruned, filter.Attrs["pruned_sequence"], filter.Attrs["candidates"], line, ex)
	}
}

// TestQueriesDoNotGrowTheSpace: a thousand queries full of labels the
// dataset has never seen leave the segment's branch vocabulary where
// indexing put it, and bound exactly as an interning query profile would.
func TestQueriesDoNotGrowTheSpace(t *testing.T) {
	ts := testDataset(40, 94)
	ix := NewIndex(ts, NewBiBranch())
	p := payloadOf(ix.cut().segs[0])
	vocab := p.space.Size()
	for i := 0; i < 1000; i++ {
		q := tree.MustParse(fmt.Sprintf("fresh%d(b,novel%d(c),d)", i, i))
		if _, _, err := ix.KNN(context.Background(), q, 3); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ix.Range(context.Background(), q, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.space.Size(); got != vocab {
		t.Fatalf("space grew from %d to %d dimensions under queries", vocab, got)
	}

	q := tree.MustParse("fresh(l1(l2,novel),l3)")
	b := p.bounder(q, make([]int32, 2*len(p.profiles)), nil)
	interned := p.space.Profile(q) // grows the space; last, on purpose
	for i, pr := range p.profiles {
		if got, want := b.BDist(i), branch.BDist(interned, pr); got != want {
			t.Fatalf("tree %d: BDist %d through the lookup profile, %d interned", i, got, want)
		}
		if got, want := b.KNNBound(i), branch.SearchLBound(interned, pr); got != want {
			t.Fatalf("tree %d: bound %d through the lookup profile, %d interned", i, got, want)
		}
	}
}

// star returns l0(l1, …, l1) with n leaves: its branch l1(ε, l1) occurs
// n−1 times, so from 16 leaves on the count saturates a posting's count
// bits.
func star(n int) *tree.Tree {
	root := tree.NewNode("l0")
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, tree.NewNode("l1"))
	}
	return tree.New(root)
}

// checkSwept holds one index's BDist and label tiers to their definitions:
// every sealed segment carries postings and the memtable does not, and for
// every tree of a sealed segment, tombstoned ones included, and every live
// tree of the memtable, the BDist tier reads ⌈BDist/Factor⌉
// off the query's columns exactly as branch.BDist computes it, while the
// cheap label tier reads what sweptLabels derives from the segment's trees
// — a sound bound, never above the exact label bound — and ExactLabel what
// exactTier does. For every tree, tombstoned ones included, the sequence
// tier read off the profiles is Guha et al.'s bound computed off the trees,
// exact uncapped and capped at k+1 below it.
func checkSwept(t *testing.T, name string, ix *Index, queries []*tree.Tree) {
	t.Helper()
	sealed := len(ix.store.View().Segments)
	cut := ix.cut()
	acc := make([]int32, 2*cut.n)
	for qi, q := range queries {
		prims := newSegBounders(cut, q, acc, new([]int))
		swept, tier := sweptLabels(ix, q), exactTier(ix, q)
		var buf seqBuf
		qh := labelHist(q)
		for si, sg := range cut.segs {
			p := payloadOf(sg)
			if inMem := si >= sealed; (p.post == nil) != inMem {
				t.Fatalf("%s: segment %d of %d (%d sealed) has postings %v", name, si, len(cut.segs), sealed, p.post != nil)
			}
			b := prims[si]
			for i, pr := range p.profiles {
				seq := editdist.SequenceLowerBound(q, p.trees[i])
				for _, k := range []int{math.MaxInt, 0, 2} {
					want := seq
					if k < seq {
						want = k + 1
					}
					if got := b.Sequence(i, k, &buf); got != want {
						t.Fatalf("%s: query %d %s, segment %d tree %d: sequence tier %d at k=%d, by definition %d",
							name, qi, q, si, i, got, k, seq)
					}
				}
				if p.post == nil && cut.tombs.Has(sg.ID(i)) {
					continue // the memtable fills no column for it
				}
				want := branch.BDist(b.qp, pr)
				_, bd, lb := b.swept(i)
				if got := b.BDist(i); got != want || bd != (want+b.factor-1)/b.factor {
					t.Fatalf("%s: query %d, segment %d tree %d: BDist %d, tier %d; merge-join %d",
						name, qi, si, i, got, bd, want)
				}
				ov := 0
				for l, tc := range labelHist(p.trees[i]) {
					ov += min(qh[l], tc)
				}
				exact := labelBound(q.Size(), pr.Size, ov)
				if wantLB := swept[sg.ID(i)]; lb != wantLB || lb > exact {
					t.Fatalf("%s: query %d %s, segment %d tree %d: label tier %d, by definition %d, exact %d",
						name, qi, q, si, i, lb, wantLB, exact)
				}
				if got, want := b.ExactLabel(i), tier[sg.ID(i)]; got != want || got < lb {
					t.Fatalf("%s: query %d %s, segment %d tree %d: exact label tier %d, by definition %d, swept %d",
						name, qi, q, si, i, got, want, lb)
				}
			}
		}
	}
}

// TestFunnelAfterThresholdFalls: a tree can be handed out while the
// threshold is high and the final k-th distance end
// up below its key. The scan here hands out every tree at an unbounded
// threshold, and the funnel is then taken at distances below most keys:
// each tree must be charged exactly once — to the tier whose key exceeds
// the distance, or as a candidate when none does and its sequence tier
// does not either — as a per-tree reference over the same bounds says; and
// EXPLAIN's deciding bound of each tree must be that tier's bound, or its
// tightened key when no tier prunes it, though the scan read every tree's
// label and tightened keys. Every other handed tree has its sequence tier
// read the way the refine stage reads it, capped one above a threshold of
// 4, the highest distance the funnel is taken at; the funnel reads the
// others' itself.
func TestFunnelAfterThresholdFalls(t *testing.T) {
	ts := testDataset(60, 95)
	ix := NewIndex(ts, NewBiBranch())
	s := branch.NewSpace(2)
	// One more leaf on ts[2]: at 4 the exact label tier stands down a tree
	// whose positional bound is higher still.
	leaf := ts[2].Clone()
	leaf.Root.Children = append(leaf.Root.Children, tree.NewNode(datagen.Label(1)))
	for _, q := range []*tree.Tree{ts[4], ts[33], unknownLabels, leaf} {
		cut := ix.cut()
		acc := getAcc(&accPool, 2*cut.n)
		sc, err := ix.filterPass(context.Background(), cut, q, *acc)
		if err != nil {
			t.Fatal(err)
		}
		handed := 0
		for {
			pos, _, ok := sc.next(context.Background(), math.MaxInt)
			if !ok {
				break
			}
			if handed%2 == 1 {
				sc.sequence(pos, 4)
			}
			handed++
		}
		if handed != len(ts) {
			t.Fatalf("query %s: %d trees handed out at an unbounded threshold, want %d", q, handed, len(ts))
		}
		tier, swept := exactTier(ix, q), sweptLabels(ix, q)
		qp := s.Profile(q)
		for worst := 0; worst <= 4; worst++ {
			var (
				want       Funnel
				wantBounds []int
			)
			wantCands := 0
			for id, tr := range ts {
				tp := s.Profile(tr)
				size := max(qp.Size-tp.Size, tp.Size-qp.Size)
				bdist := max(size, branch.BDistLowerBound(qp, tp))
				label := max(bdist, tier[id])
				key := max(label, branch.SearchLBound(qp, tp))
				switch {
				case size > worst:
					want.Size++
					key = size
				case bdist > worst:
					want.BDist++
					key = bdist
				case label > worst:
					want.Label++
					key = label
					if swept[id] > worst {
						key = swept[id]
					}
				case key > worst:
					want.Positional++
				case editdist.SequenceLowerBound(q, tr) > worst:
					want.Sequence++
				default:
					wantCands++
				}
				wantBounds = append(wantBounds, key)
			}
			if cands, f := sc.funnel(worst); f != want || cands != wantCands {
				t.Fatalf("query %s at %d: funnel %+v with %d candidates, reference %+v with %d", q, worst, f, cands, want, wantCands)
			}
			got := sc.decidingBounds(worst)
			slices.Sort(got)
			slices.Sort(wantBounds)
			if !slices.Equal(got, wantBounds) {
				t.Fatalf("query %s at %d: deciding bounds %v, reference %v", q, worst, got, wantBounds)
			}
		}
		scanPool.Put(sc.scanBufs)
		accPool.Put(acc)
	}
}
