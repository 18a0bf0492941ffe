package core

import (
	"runtime"
	"slices"
	"testing"

	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestWriteBackInIndexOrder: after every setting a batch's state, not just
// its results, is the same for every worker count — each circuit's record
// store, the packed interest rows and their nonzero-word counts. Stores are
// sorted by node and rows are indexed by node and lane, so the order in
// which runActivated writes the diffs back (ascending circuit id) leaves no
// trace in them; what the comparison pins is that no diff is lost, doubled
// or applied to the wrong circuit when lanes finish out of order. The
// yields in the lane hook make them do so even on one CPU.
func TestWriteBackInIndexOrder(t *testing.T) {
	m := ram.RAM64()
	faults := wideUniverse(m)
	seq := *march.Sequence1(m)
	seq.Patterns = seq.Patterns[:120]
	tab := switchsim.NewTables(m.Net)
	one := Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	rec := Record(m.Net, &seq, one)
	a, err := NewFaultBatch(tab, faults, one)
	if err != nil {
		t.Fatal(err)
	}
	many := one
	many.Workers = 4
	b, err := NewFaultBatch(tab, faults, many)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range b.workers {
		w.onLane = func(ci CircuitID, materialized bool) {
			for j := 0; materialized && j < int(ci)%5; j++ {
				runtime.Gosched()
			}
		}
	}
	lockstep(t, rec, &seq, a, b, func(where string, sa, sb SettingStats) {
		if sa != sb {
			t.Fatalf("%s: stats %+v with one worker, %+v with four", where, sa, sb)
		}
		for fi := range faults {
			ra, rb := &a.faults[fi].recs, &b.faults[fi].recs
			if !slices.Equal(ra.nodes, rb.nodes) || !slices.Equal(ra.vals, rb.vals) {
				t.Fatalf("%s: fault %s records differ between one worker and four", where, faults[fi].Describe(m.Net))
			}
		}
		if !slices.Equal(a.interestMask, b.interestMask) || !slices.Equal(a.interestNZ, b.interestNZ) {
			t.Fatalf("%s: four workers left different interest rows from one", where)
		}
	})
}
