// Mergeorder fixtures: merge-feeding functions (anything touching
// core.BatchResult or campaign.Merge) may not build circuit data from
// map iteration or from concurrently scheduled appends.
package distrib

import (
	"sort"
	"sync"

	"fmossim/internal/core"
	"fmossim/internal/fanout"
)

func buildFromMap(m map[int]core.Detection) *core.BatchResult {
	br := &core.BatchResult{}
	for _, d := range m { // want `map-sourced iteration in merge-feeding function buildFromMap`
		br.Detections = append(br.Detections, d)
	}
	return br
}

func buildSorted(m map[int]core.Detection) *core.BatchResult {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	br := &core.BatchResult{}
	for _, id := range ids {
		br.Detections = append(br.Detections, m[id])
	}
	return br
}

func concurrentAppend(shards []*core.BatchResult) []core.Detection {
	var dets []core.Detection
	var wg sync.WaitGroup
	for range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dets = append(dets, core.Detection{}) // want `append to dets \(declared outside the goroutine\) in merge-feeding function concurrentAppend`
		}()
	}
	wg.Wait()
	return dets
}

// fanout.Each runs its callback on spawned goroutines: an append to an
// outer slice there is as scheduling-dependent as one in a go'd literal.
func eachAppend(shards []*core.BatchResult) []core.Detection {
	var dets []core.Detection
	var mu sync.Mutex
	fanout.Each(len(shards), 4, func(_, i int) {
		mu.Lock()
		dets = append(dets, shards[i].Detections...) // want `append to dets \(declared outside the goroutine\) in merge-feeding function eachAppend`
		mu.Unlock()
	})
	return dets
}

// An indexed write is owned by i: the slot, not the schedule, orders it.
func eachIndexed(shards []*core.BatchResult) []int {
	counts := make([]int, len(shards))
	fanout.Each(len(shards), 4, func(_, i int) {
		counts[i] = shards[i].DetectedCount()
	})
	return counts
}

func goroutineLocalAppend(shards []*core.BatchResult, sink func([]int)) {
	for range shards {
		go func() {
			var local []int
			local = append(local, 1)
			sink(local)
		}()
	}
}

// Not merge-feeding: no BatchResult, no campaign.Merge — mergeorder
// stays silent here (mapiter owns package-wide map hygiene).
func unrelatedMapRange(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
