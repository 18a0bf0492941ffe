package fanout

import (
	"sync"
	"sync/atomic"
)

// Each calls fn(w, i) exactly once for every i in [0, n), on at most
// min(k, n) goroutines, and returns once every call has returned. w in
// [0, min(k, n)) names the goroutine making the call, so fn may keep
// per-goroutine scratch in a slot indexed by w. Indices are handed out in
// ascending order; when each call finishes is up to the scheduler.
//
// When k <= 1 or n <= 1 every call runs inline on the caller's goroutine
// as w 0, in index order, and nothing is spawned. Otherwise the caller
// works as w 0 alongside min(k, n)-1 spawned goroutines, none of which
// outlives Each.
//
// Contract: fn writes only to state owned by its i or its w. Each
// imposes no order on the calls' effects; a caller that needs one writes
// back after Each returns.
func Each(n, k int, fn func(w, i int)) {
	if k <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	k = min(k, n)
	var next atomic.Int64
	run := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for w := 1; w < k; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
