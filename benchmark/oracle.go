package main

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"treesim/internal/editdist"
	"treesim/internal/search"
	"treesim/internal/server"
	"treesim/internal/tree"
)

// allCores lends the caller every core until the returned function is
// called: for work outside every timed region.
func allCores() (restore func()) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	return func() { runtime.GOMAXPROCS(prev) }
}

// scanDistances is the oracle: the unbounded edit distance from q to every
// tree, ascending, computed by a plain scan fanned over nproc goroutines.
func scanDistances(q *tree.Tree, ts []*tree.Tree) []int {
	defer allCores()()
	out := make([]int, len(ts))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ts); i += workers {
				out[i] = editdist.Distance(q, ts[i])
			}
		}(w)
	}
	wg.Wait()
	sort.Ints(out)
	return out
}

// oracleCheck compares served answers with the scan, as distance
// multisets: the first n queries of the seeded list are answered by
// serve and must carry exactly the k smallest distances (k-NN) or every
// distance ≤ tau (range) over the live trees.
func (r *runner) oracleCheck(n int, live []*tree.Tree, tr transport) {
	for _, rq := range r.in.reqs {
		if n == 0 {
			return
		}
		if !rq.kind.query() {
			continue
		}
		n--
		a := r.exec(rq, tr)
		if !a.ok {
			continue // exec counted the failure
		}
		q, err := tree.Parse(rq.tree)
		if err != nil {
			r.fail("oracle: generated query does not parse: %v", err)
			continue
		}
		want := scanDistances(q, live)
		if rq.kind == opKNN {
			want = want[:min(rq.arg, len(want))]
		} else {
			want = want[:sort.SearchInts(want, rq.arg+1)]
		}
		got := make([]int, len(a.query.Results))
		for i, res := range a.query.Results {
			got[i] = res.Dist
		}
		if !slices.Equal(got, want) {
			r.fail("oracle: %s(%d) served distances %v, scan says %v", rq.kind, rq.arg, got, want)
		}
	}
}

// crashRestart is the durability check: abandon the server without
// Shutdown, build a fresh index from the base dataset, open a new server
// on the same WAL and Recover. Every acknowledged write
// must be replayed, every acknowledged insert readable with identical
// text, every acknowledged delete gone, and the recovered index must
// answer oracle queries exactly. It returns the replay time in ms.
func (r *runner) crashRestart() float64 {
	r.inst.abandon()
	r.hc.CloseIdleConnections()

	ix := search.NewIndex(r.in.base, r.w.indexOpts()...)
	cfg := r.inst.cfg
	cfg.ProfileEvery = -1 // or Shutdown below waits out a 500 ms tail-profile capture
	srv := server.New(ix, cfg)
	t0 := time.Now()
	res, err := srv.Recover()
	recoverMS := ms(time.Since(t0))
	r.attempted++
	if err != nil {
		r.fail("recover after crash: %v", err)
		return recoverMS
	}
	if res.Replayed != r.writes {
		r.fail("recover replayed %d records, %d writes were acknowledged", res.Replayed, r.writes)
	}
	for id, text := range r.acked {
		r.attempted++
		if t, ok := ix.TreeAt(id); !ok || t.String() != text {
			r.fail("acknowledged insert %d lost or altered by recovery", id)
		}
	}
	for id := range r.deleted {
		r.attempted++
		if _, ok := ix.TreeAt(id); ok {
			r.fail("acknowledged delete of %d resurrected by recovery", id)
		}
	}
	var live []*tree.Tree
	for id := 0; id < ix.Size(); id++ {
		if t, ok := ix.TreeAt(id); ok {
			live = append(live, t)
		}
	}
	r.oracleCheck(r.w.oracle, live, inProcess(srv.Handler()))
	// The recovered server never listened; Shutdown only closes its WAL.
	if err := srv.Shutdown(context.Background()); err != nil {
		r.fail("shutdown of the recovered server: %v", err)
	}
	return recoverMS
}
