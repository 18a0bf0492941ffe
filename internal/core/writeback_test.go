package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestWriteBackInIndexOrder: after every setting a batch's state, not just
// its results, is the same for every worker count, because the fan-out's
// diffs are written back in ascending circuit-id order. Packed record rows
// are allocated lazily, in write-back order, so a write-back in completion
// order would keep the same records in a different row layout — which no
// result shows. The yields in the lane hook make lanes finish out of index
// order even on one CPU.
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
		if !slices.Equal(a.recRowIdx, b.recRowIdx) || !reflect.DeepEqual(a.recRows, b.recRows) {
			t.Fatalf("%s: four workers laid the packed record rows out differently from one", where)
		}
	})
}
