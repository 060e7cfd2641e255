package search

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workPool bounds how many extra goroutines an index lends its queries.
// The pool is shared index-wide: filter-shard helpers and refine-stage
// verifiers of every in-flight query draw from the same budget, so a
// heavy query degrades to fewer helpers instead of starving the rest of
// the process (or the server's admission semaphore).
//
// The calling goroutine always participates in its own work, so running
// out of pool capacity never blocks or deadlocks — execution just falls
// back toward sequential.
type workPool struct {
	size int
	sem  chan struct{} // one token per helper goroutine (size-1 of them)
}

// newWorkPool sizes a pool; size <= 0 means GOMAXPROCS. A pool of size 1
// lends no helpers: every query runs fully on its own goroutine.
func newWorkPool(size int) *workPool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	if size < 1 {
		size = 1
	}
	return &workPool{size: size, sem: make(chan struct{}, size-1)}
}

// run executes fn(t) for every task t in [0, n), handing tasks out in
// ascending order through a shared cursor. The caller works the cursor
// itself and up to n-1 helper goroutines join it, each gated by a
// non-blocking pool-token acquire — when the pool is busy the caller
// simply does a larger share. run returns only after every started task
// finished. A nil pool runs everything inline.
func (p *workPool) run(n int, fn func(task int)) {
	var next atomic.Int64
	next.Store(-1)
	work := func() {
		for {
			t := next.Add(1)
			if t >= int64(n) {
				return
			}
			fn(int(t))
		}
	}
	if p == nil {
		work()
		return
	}
	var wg sync.WaitGroup
spawn:
	for i := 1; i < n; i++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.sem }()
				work()
			}()
		default:
			break spawn
		}
	}
	work()
	wg.Wait()
}

// forEach runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines
// of its own — index builds and snapshot decoding, which run outside any
// index's pool.
func forEach(n int, fn func(i int)) { newWorkPool(0).run(n, fn) }
