package fanout_test

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmossim/internal/fanout"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	return string(buf[:bytes.IndexByte(buf, ' ')])
}

// TestEachRunsEveryIndexOnce: every index in [0, n) is called exactly
// once, w stays below min(k, n), and each goroutine receives its indices
// in ascending order.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 4}, {1, 4}, {2, 2}, {7, 3}, {64, 4}, {100, 8}, {5, 1}, {5, 0}, {5, -2},
	} {
		calls := make([]atomic.Int32, tc.n)
		var mu sync.Mutex
		perW := map[int][]int{}
		fanout.Each(tc.n, tc.k, func(w, i int) {
			calls[i].Add(1)
			mu.Lock()
			perW[w] = append(perW[w], i)
			mu.Unlock()
		})
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("n=%d k=%d: index %d called %d times", tc.n, tc.k, i, c)
			}
		}
		for w, is := range perW {
			if w < 0 || w >= max(1, min(tc.k, tc.n)) {
				t.Errorf("n=%d k=%d: worker id %d out of range", tc.n, tc.k, w)
			}
			for j := 1; j < len(is); j++ {
				if is[j] <= is[j-1] {
					t.Errorf("n=%d k=%d: worker %d got %v, not ascending", tc.n, tc.k, w, is)
					break
				}
			}
		}
	}
}

// TestEachInlineOnCaller: with k <= 1 or n <= 1 every call runs on the
// caller's goroutine as w 0, in index order.
func TestEachInlineOnCaller(t *testing.T) {
	caller := goid()
	for _, tc := range []struct{ n, k int }{{5, 1}, {5, 0}, {5, -1}, {1, 8}, {0, 8}} {
		var got []int
		fanout.Each(tc.n, tc.k, func(w, i int) {
			if g := goid(); g != caller || w != 0 {
				t.Errorf("n=%d k=%d: index %d ran as w %d on goroutine %s, caller is %s", tc.n, tc.k, i, w, g, caller)
			}
			got = append(got, i)
		})
		if len(got) != tc.n {
			t.Fatalf("n=%d k=%d: %d calls", tc.n, tc.k, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d k=%d: inline order %v", tc.n, tc.k, got)
			}
		}
	}
}

// TestEachClampsToN: with k > n, no more than n goroutines run. Every call
// waits until n calls are in flight at once, so the n indices must be on n
// distinct goroutines, each with a distinct w below n.
func TestEachClampsToN(t *testing.T) {
	const n, k = 3, 16
	var arrived atomic.Int32
	all := make(chan struct{})
	var mu sync.Mutex
	ws, gs := map[int]bool{}, map[string]bool{}
	fanout.Each(n, k, func(w, i int) {
		mu.Lock()
		ws[w], gs[goid()] = true, true
		mu.Unlock()
		if arrived.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("index %d: %d of %d calls ever in flight together", i, arrived.Load(), n)
		}
	})
	if len(ws) != n || len(gs) != n {
		t.Fatalf("k=%d over n=%d: %d worker ids on %d goroutines, want %d", k, n, len(ws), len(gs), n)
	}
	for w := range ws {
		if w >= n {
			t.Errorf("worker id %d with only %d indices", w, n)
		}
	}
}

// TestEachLeavesNoGoroutine: every call has returned when Each returns,
// and the goroutines it spawned exit.
func TestEachLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	var running, done atomic.Int32
	fanout.Each(200, 8, func(w, i int) {
		running.Add(1)
		runtime.Gosched()
		running.Add(-1)
		done.Add(1)
	})
	if r, d := running.Load(), done.Load(); r != 0 || d != 200 {
		t.Fatalf("after Each: %d calls still running, %d of 200 done", r, d)
	}
	// A spawned goroutine may still be between its last wg.Done and its
	// exit; wait for the count to settle, bounded.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Each (base %d)", runtime.NumGoroutine()-base, base)
		}
		runtime.Gosched()
	}
}
