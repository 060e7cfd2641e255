package treesim

// The benchmark harness regenerating the paper's evaluation (one benchmark
// per figure, Figs. 7–15) plus micro-benchmarks backing the complexity
// claims of Sections 3–4 and ablations of the design choices listed in
// DESIGN.md.
//
// Figure benchmarks run the corresponding experiment at a laptop scale and
// report the headline measures as custom metrics:
//
//	bibranch-%   average % of the dataset verified under the BiBranch filter
//	histo-%      same for the Histo baseline
//	speedup-x    sequential CPU time / BiBranch CPU time
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Paper-scale runs (2000 trees, 100 queries) are available through
// cmd/experiments -scale paper.

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/dblp"
	"treesim/internal/editdist"
	"treesim/internal/experiments"
	"treesim/internal/invfile"
	"treesim/internal/search"
	"treesim/internal/segstore"
	"treesim/internal/tree"
)

// benchScale is the dataset scale for figure benchmarks.
func benchScale() experiments.Config {
	cfg := experiments.UnitScale()
	cfg.DatasetSize = 150
	cfg.Queries = 8
	return cfg
}

func reportTable(b *testing.B, t *experiments.Table) {
	b.Helper()
	var bib, his, speed float64
	for _, r := range t.Rows {
		bib += r.BiBranchPct
		his += r.HistoPct
		if r.BiBranchTime > 0 {
			speed += float64(r.SeqTime) / float64(r.BiBranchTime)
		}
	}
	n := float64(len(t.Rows))
	b.ReportMetric(bib/n, "bibranch-%")
	b.ReportMetric(his/n, "histo-%")
	b.ReportMetric(speed/n, "speedup-x")
}

func BenchmarkFig07FanoutRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.Fig07(benchScale()))
	}
}

func BenchmarkFig08FanoutKNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.Fig08(benchScale()))
	}
}

func BenchmarkFig09SizeRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.Fig09(benchScale()))
	}
}

func BenchmarkFig10SizeKNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.Fig10(benchScale()))
	}
}

func BenchmarkFig11LabelRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.Fig11(benchScale()))
	}
}

func BenchmarkFig12LabelKNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.Fig12(benchScale()))
	}
}

func BenchmarkFig13DBLPKNN(b *testing.B) {
	cfg := benchScale()
	cfg.DatasetSize = 600 // DBLP records are tiny; use more of them
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.Fig13(cfg))
	}
}

func BenchmarkFig14DBLPRange(b *testing.B) {
	cfg := benchScale()
	cfg.DatasetSize = 600
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.Fig14(cfg))
	}
}

func BenchmarkFig15Distribution(b *testing.B) {
	cfg := benchScale()
	cfg.DatasetSize = 400
	for i := 0; i < b.N; i++ {
		t := experiments.Fig15(cfg)
		// Report the area between each bound's CDF and the Edit CDF —
		// smaller is tighter.
		var hGap, b2Gap float64
		for _, r := range t.Rows {
			hGap += r.Histo - r.Edit
			b2Gap += r.BiBranch2 - r.Edit
		}
		b.ReportMetric(hGap/float64(len(t.Rows)), "histo-gap")
		b.ReportMetric(b2Gap/float64(len(t.Rows)), "bibranch2-gap")
	}
}

// --- Micro-benchmarks: the complexity claims of Sections 3–4. ---

func syntheticPair(size float64, seed int64) (*tree.Tree, *tree.Tree) {
	spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: size, SizeStd: 2, Labels: 8, Decay: 0.05}
	g := datagen.New(spec, seed)
	t1 := g.Seed()
	return t1, g.Derive(t1)
}

// BenchmarkEditDistance measures the quadratic Zhang–Shasha cost at the
// paper's tree sizes — the cost the filter avoids.
func BenchmarkEditDistance(b *testing.B) {
	for _, size := range []float64{25, 50, 100} {
		t1, t2 := syntheticPair(size, 7)
		b.Run(sizeName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				editdist.Distance(t1, t2)
			}
		})
	}
}

// BenchmarkBDist measures the linear binary branch distance at the same
// sizes (profiles precomputed, as in a real index).
func BenchmarkBDist(b *testing.B) {
	for _, size := range []float64{25, 50, 100} {
		t1, t2 := syntheticPair(size, 7)
		s := branch.NewSpace(2)
		p1, p2 := s.Profile(t1), s.Profile(t2)
		b.Run(sizeName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				branch.BDist(p1, p2)
			}
		})
	}
}

// BenchmarkSearchLBound measures the positional optimistic bound
// (O((|T1|+|T2|)·log min(|T1|,|T2|)), Section 4.4), in full and, in the
// -capped rows, as a scan asks for it: from the ⌈BDist/5⌉ tier as its
// floor, at a threshold equal to the bound, so the search must find the
// bound exactly inside the capped window.
func BenchmarkSearchLBound(b *testing.B) {
	for _, size := range []float64{25, 50, 100} {
		t1, t2 := syntheticPair(size, 7)
		s := branch.NewSpace(2)
		p1, p2 := s.Profile(t1), s.Profile(t2)
		b.Run(sizeName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				branch.SearchLBound(p1, p2)
			}
		})
		floor, theta := branch.BDistLowerBound(p1, p2), branch.SearchLBound(p1, p2)
		b.Run(sizeName(size)+"-capped", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				branch.SearchLBoundWithin(p1, p2, floor, theta)
			}
		})
	}
}

// BenchmarkVectorConstruction measures Algorithm 1 — profiling every tree
// into the flat per-segment arrays plus the counting sort that builds the
// inverted file over them — demonstrating the linear O(Σ|Ti|) claim of
// Section 4.4.
func BenchmarkVectorConstruction(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 50, SizeStd: 2, Labels: 8, Decay: 0.05}
		ts := datagen.New(spec, 3).Dataset(n, 10)
		b.Run(intName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				invfile.Build(branch.NewSpace(2).ProfileAll(ts))
			}
		})
	}
}

// BenchmarkFilterStage measures the filter stage alone, in ns per live
// tree, for the two query kinds at growing dataset sizes on the paper's
// default spec, and reports per query what the filter leaves: the share
// of the trees the cheap tiers prune, the candidates and the
// verifications, each read once per query of the set outside the timed
// loop. Over an indexed segment both kinds read every tree's BDist and
// label overlap off one sweep each of the segment's postings, so the
// per-tree work left is the size tier, two lookups and, for the few
// survivors, a positional bound and the sequence tier: a range query's at
// τ, a k-NN query's lazily during refinement (Stats.FilterTime counts
// them). The -memtable rows hold the last 1 023 trees in the memtable, one
// insert short of the default seal, which merge-joins per tree, in full
// for both kinds, and has no label tier. The dblp rows are DBLP-like records
// queried by variants of records, as the mixed_rw workload queries them:
// there the label tier, not BDist, decides most trees, and the sequence
// tier most of the trees the others leave, which verified reads. The l2
// rows are the default spec with two labels, N{4,0.5}N{50,2}L2, at
// n = 2 000: a range query's label column decides most trees there, while
// a k-NN query's cheap tiers leave nearly every tree standing, and its
// lazy tiers, the positional bound first, are most of its filter. The
// bigtree row is the knn_bigtree workload's shape, N{2,0.5}N{150,5}L8D0.05
// at n = 500, and the fanout8 row N{8,1}N{50,2}L8D0.05 at n = 2 000, each
// built and queried as that workload is: on both the positional search is
// a large share of a k-NN query's lazy tiers.
func BenchmarkFilterStage(b *testing.B) {
	spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 50, SizeStd: 2, Labels: 8, Decay: 0.05}
	run := func(name string, n int, query func(q *tree.Tree) search.Stats, queries []*tree.Tree) {
		b.Run(name+"/"+intName(n), func(b *testing.B) {
			// Per query of the set, not per iteration: b.N cycles the set,
			// so a mean over the iterations would move with b.N.
			var cheap, candidates, verified int
			for _, q := range queries {
				st := query(q)
				cheap += st.Pruned.Size + st.Pruned.BDist + st.Pruned.Label
				candidates += st.Candidates
				verified += st.Verified
			}
			b.ResetTimer()
			var filter time.Duration
			for i := 0; i < b.N; i++ {
				filter += query(queries[i%len(queries)]).FilterTime
			}
			nq := float64(len(queries))
			b.ReportMetric(float64(filter.Nanoseconds())/float64(b.N)/float64(n), "ns/tree")
			b.ReportMetric(float64(cheap)/nq/float64(n), "cheap-pruned")
			b.ReportMetric(float64(candidates)/nq, "candidates")
			b.ReportMetric(float64(verified)/nq, "verified")
		})
	}
	rangeq := func(ix *search.Index, tau int) func(q *tree.Tree) search.Stats {
		return func(q *tree.Tree) search.Stats {
			_, st, _ := ix.Range(context.Background(), q, tau)
			return st
		}
	}
	knn := func(ix *search.Index, k int) func(q *tree.Tree) search.Stats {
		return func(q *tree.Tree) search.Stats {
			_, st, _ := ix.KNN(context.Background(), q, k)
			return st
		}
	}
	for _, n := range []int{2000, 8000, 32000} {
		ts := datagen.New(spec, 5).Dataset(n, n/10)
		ix := search.NewIndex(ts, search.NewBiBranch())
		const inMem = segstore.DefaultMemtableSize - 1
		mem := search.NewIndex(ts[:n-inMem], search.NewBiBranch())
		for _, t := range ts[n-inMem:] {
			mem.Insert(t)
		}
		queries := make([]*tree.Tree, 16)
		for i := range queries {
			queries[i] = ts[(i*997+42)%n]
		}
		for _, layout := range []struct {
			suffix string
			ix     *search.Index
		}{{"", ix}, {"-memtable", mem}} {
			run("range-tau3"+layout.suffix, n, rangeq(layout.ix, 3), queries)
			run("knn-k5"+layout.suffix, n, knn(layout.ix, 5), queries)
		}
	}
	const n = 10000
	g := dblp.New(5)
	ts := g.Dataset(n)
	ix := search.NewIndex(ts, search.NewBiBranch())
	queries := make([]*tree.Tree, 16)
	for i := range queries {
		queries[i] = g.Variant(ts[(i*997+42)%n])
	}
	run("dblp-range-tau3", n, rangeq(ix, 3), queries)
	run("dblp-knn-k10", n, knn(ix, 10), queries)

	for _, c := range []struct {
		name, spec string
		n          int
	}{
		{"bigtree-knn-k5", "N{2,0.5}N{150,5}L8D0.05", 500},
		{"fanout8-knn-k5", "N{8,1}N{50,2}L8D0.05", 2000},
	} {
		sp, err := datagen.ParseSpec(c.spec)
		if err != nil {
			b.Fatal(err)
		}
		// Clusters of a seed tree and nine derived from it, as the
		// workload builds them, queried by trees up to three random edits
		// from a member.
		g := datagen.New(sp, 5)
		ts := make([]*tree.Tree, 0, c.n)
		for len(ts) < c.n {
			s := g.Seed()
			ts = append(ts, s)
			for i := 1; i < 10; i++ {
				ts = append(ts, g.Derive(s))
			}
		}
		ix := search.NewIndex(ts, search.NewBiBranch())
		for i := range queries {
			queries[i] = g.RandomEdits(ts[(i*997+42)%c.n], i%4)
		}
		run(c.name, c.n, knn(ix, 5), queries)
	}

	spec.Labels = 2
	const n2 = 2000
	ts = datagen.New(spec, 5).Dataset(n2, n2/10)
	ix = search.NewIndex(ts, search.NewBiBranch())
	for i := range queries {
		queries[i] = ts[(i*997+42)%n2]
	}
	run("l2-range-tau3", n2, rangeq(ix, 3), queries)
	run("l2-knn-k10", n2, knn(ix, 10), queries)
}

// BenchmarkSnapshot is the snapshot rung: SaveIndex and LoadIndex of a
// one-segment BiBranch index on range_scan's shape at n = 8 000 and on
// DBLP-like records at n = 10 000, and of a fragmented store on the DBLP
// shape, reporting the snapshot's size. The fragmented store is built the
// way mixed_rw writes: the records inserted one by one at memtable 64
// (compaction off, so 156 sealed segments and a memtable of 16), then
// every tenth id deleted. A load parses every tree and builds the
// profiles and postings of one segment over them.
func BenchmarkSnapshot(b *testing.B) {
	spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 50, SizeStd: 2, Labels: 8, Decay: 0.05}
	recs := dblp.New(5).Dataset(10000)
	frag := search.NewIndex(nil, search.NewBiBranch(), search.WithMemtableSize(64), search.WithCompactionThreshold(-1))
	for _, t := range recs {
		frag.Insert(t)
	}
	for id := 0; id < len(recs); id += 10 {
		frag.Delete(id)
	}
	for _, c := range []struct {
		name string
		ix   *search.Index
	}{
		{"range_scan-shape/8000", search.NewIndex(datagen.New(spec, 5).Dataset(8000, 800), search.NewBiBranch())},
		{"dblp/10000", search.NewIndex(recs, search.NewBiBranch())},
		{"dblp-fragmented/10000", frag},
	} {
		var snap bytes.Buffer
		if err := search.SaveIndex(&snap, c.ix); err != nil {
			b.Fatal(err)
		}
		b.Run("save/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := search.SaveIndex(io.Discard, c.ix); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(snap.Len()), "snapshot-bytes")
		})
		b.Run("load/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search.LoadIndex(bytes.NewReader(snap.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(snap.Len()), "snapshot-bytes")
		})
	}
}

// BenchmarkKNNQuery compares one k-NN query under the filter and under the
// sequential scan on a fixed synthetic dataset (index construction
// excluded).
func BenchmarkKNNQuery(b *testing.B) {
	spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 50, SizeStd: 2, Labels: 8, Decay: 0.05}
	ts := datagen.New(spec, 5).Dataset(300, 15)
	q := ts[42]
	filters := map[string]*search.BiBranch{
		"BiBranch":   search.NewBiBranch(),
		"Sequential": nil,
	}
	for name, f := range filters {
		ix := search.NewIndex(ts, f)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix.KNN(context.Background(), q, 3)
			}
		})
	}
}

// --- Ablations (DESIGN.md, "Design choices to ablate"). ---

// BenchmarkAblationPositional compares the positional optimistic bound
// against plain ceil(BDist/5) filtering: verified fraction and query time.
func BenchmarkAblationPositional(b *testing.B) {
	spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 50, SizeStd: 2, Labels: 8, Decay: 0.05}
	ts := datagen.New(spec, 5).Dataset(300, 15)
	q := ts[42]
	for _, positional := range []bool{true, false} {
		name := "positional"
		if !positional {
			name = "plain"
		}
		ix := search.NewIndex(ts, &search.BiBranch{Q: 2, Positional: positional})
		b.Run(name, func(b *testing.B) {
			var verified int
			for i := 0; i < b.N; i++ {
				_, st, _ := ix.KNN(context.Background(), q, 3)
				verified = st.Verified
			}
			b.ReportMetric(100*float64(verified)/float64(len(ts)), "accessed-%")
		})
	}
}

// BenchmarkAblationQLevel sweeps the branch level q: higher levels encode
// more structure but loosen the scaled bound on shallow data.
func BenchmarkAblationQLevel(b *testing.B) {
	spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 50, SizeStd: 2, Labels: 8, Decay: 0.05}
	ts := datagen.New(spec, 5).Dataset(300, 15)
	q := ts[42]
	for _, ql := range []int{2, 3, 4} {
		ix := search.NewIndex(ts, &search.BiBranch{Q: ql, Positional: true})
		b.Run(intName(ql), func(b *testing.B) {
			var verified int
			for i := 0; i < b.N; i++ {
				_, st, _ := ix.KNN(context.Background(), q, 3)
				verified = st.Verified
			}
			b.ReportMetric(100*float64(verified)/float64(len(ts)), "accessed-%")
		})
	}
}

// BenchmarkAblationMatching compares the greedy monotone positional
// matching fast path with the exact augmenting-path fallback on co-sorted
// occurrence lists (where both are valid).
func BenchmarkAblationMatching(b *testing.B) {
	// Occurrence lists from a real profile: the most frequent branch of a
	// large tree.
	spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 200, SizeStd: 5, Labels: 4, Decay: 0.05}
	g := datagen.New(spec, 9)
	s := branch.NewSpace(2)
	p1, p2 := s.Profile(g.Seed()), s.Profile(g.Seed())
	b.Run("PosBDist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			branch.PosBDist(p1, p2, 10)
		}
	})
}

// BenchmarkAblationPostingsVsMergeJoin compares the two ways to get a
// query's branch distance to every tree of a segment, in ns per tree: one
// sweep over the packed inverted lists of the query's branches
// (internal/invfile, what a sealed segment's BDist tier runs) and a pass
// turning each overlap into BDist, or a merge-join of the query's vector
// with each tree's (what the memtable's runs). The 2000 rows time one
// query; the 8000 rows are range_scan's shape, n = 8 000 in clusters of
// 10, cycling 16 queries a few random edits from dataset trees, as that
// workload draws them. ns/posting divides a sweep's time by the postings
// it reads, the cost the sweep's loop sets.
func BenchmarkAblationPostingsVsMergeJoin(b *testing.B) {
	spec := datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 50, SizeStd: 2, Labels: 8, Decay: 0.05}
	for _, c := range []struct{ n, clusters, queries int }{{2000, 200, 1}, {8000, 800, 16}} {
		g := datagen.New(spec, 3)
		ts := g.Dataset(c.n, c.clusters)
		s := branch.NewSpace(2)
		ps := s.ProfileAll(ts)
		x := invfile.Build(ps)
		carriers := make([]int, s.Size())
		for _, p := range ps {
			for _, d := range p.Dims() {
				carriers[d]++
			}
		}
		qs := []*branch.Profile{s.QueryProfile(ts[42])}
		for i := 1; i < c.queries; i++ {
			qs = append(qs, s.QueryProfile(g.RandomEdits(ts[(i*997+42)%c.n], i%4)))
		}
		postings := make([]int, len(qs)) // swept by each query
		for i, q := range qs {
			for _, d := range q.Dims() {
				postings[i] += carriers[d]
			}
		}
		perTree := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ps)), "ns/tree")
		}
		b.Run("Postings/"+intName(c.n), func(b *testing.B) {
			ov := make([]int32, len(ps))
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				x.Overlaps(q, ov)
				for t, o := range ov {
					sink += q.Size + ps[t].Size - 2*int(o)
				}
			}
			perTree(b)
			swept := 0
			for i := 0; i < b.N; i++ {
				swept += postings[i%len(qs)]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(swept), "ns/posting")
		})
		b.Run("MergeJoin/"+intName(c.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				for _, p := range ps {
					sink += branch.BDist(q, p)
				}
			}
			perTree(b)
		})
	}
}

// sink keeps benchmark results alive.
var sink int

// BenchmarkDBLPGeneration measures the DBLP-like dataset substrate.
func BenchmarkDBLPGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dblp.New(int64(i)).Dataset(500)
	}
}

func sizeName(s float64) string { return intName(int(s)) }

func intName(n int) string {
	switch {
	case n < 10:
		return string(rune('0' + n))
	default:
		out := ""
		for n > 0 {
			out = string(rune('0'+n%10)) + out
			n /= 10
		}
		return out
	}
}
