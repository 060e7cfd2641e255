package branch_test

import (
	"testing"

	"treesim/internal/branch"
	"treesim/internal/datagen"
	"treesim/internal/dblp"
	"treesim/internal/tree"
)

// rangeScanShape is the dataset of the benchmark's range_scan workload: the
// paper's default spec in clusters of one seed tree and nine derived from it.
func rangeScanShape(n int) []*tree.Tree {
	spec, err := datagen.ParseSpec("N{4,0.5}N{50,2}L8D0.05")
	if err != nil {
		panic(err)
	}
	g := datagen.New(spec, 1)
	ts := make([]*tree.Tree, 0, n)
	for len(ts) < n {
		s := g.Seed()
		ts = append(ts, s)
		for i := 1; i < 10; i++ {
			ts = append(ts, g.Derive(s))
		}
	}
	return ts[:n]
}

var profileSink *branch.Profile

// BenchmarkProfile is the ladder's profiling rung: what index build,
// compaction and replay (build/*: a fresh space and one worker over a whole
// dataset), an insert (single/50) and a query (query/50) pay per tree. Run
// it on one core:
//
//	go test -run '^$' -bench '^BenchmarkProfile$' -benchmem -cpu 1 ./internal/branch
func BenchmarkProfile(b *testing.B) {
	perNode := func(b *testing.B, nodes int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
	}
	for _, ds := range []struct {
		name string
		ts   []*tree.Tree
	}{
		{"range_scan-shape", rangeScanShape(8000)},
		{"dblp", dblp.New(1).Dataset(10000)},
	} {
		b.Run("build/"+ds.name, func(b *testing.B) {
			nodes := 0
			for _, t := range ds.ts {
				nodes += t.Size()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				profileSink = branch.NewSpace(2).ProfileAllParallel(ds.ts, 1)[0]
			}
			perNode(b, nodes)
		})
	}

	ts := rangeScanShape(200)
	s := branch.NewSpace(2)
	s.ProfileAll(ts[:100])
	t := ts[150] // from a cluster the space has not seen: some branches miss
	b.Run("single/50", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			profileSink = s.Profile(t)
		}
		perNode(b, t.Size())
	})
	b.Run("query/50", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			profileSink = s.QueryProfile(t)
		}
		perNode(b, t.Size())
	})
}
