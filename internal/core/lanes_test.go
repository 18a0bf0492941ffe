package core_test

import (
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
)

// TestLaneInvariantsEveryPattern drives the monolithic simulator over a
// universe spanning several lane words (the last one partly filled),
// checking the record/interest-row invariants after every pattern. That a fault's lane position never changes its outcome is
// pinned by the batch-size cases of campaign's TestCampaignMatchesMonolithic.
func TestLaneInvariantsEveryPattern(t *testing.T) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	if len(faults) <= 128 || len(faults)%64 == 0 {
		t.Fatalf("%d faults: want at least three lane words, the last partly filled", len(faults))
	}
	seq := march.Sequence1(m)

	s, err := core.New(m.Net, faults, core.Options{
		Observe: []netlist.NodeID{m.DataOut},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after init: %v", err)
	}
	for pi := range seq.Patterns {
		s.RunPattern(&seq.Patterns[pi])
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after pattern %d: %v", pi, err)
		}
	}
	detected := 0
	for fi := range faults {
		if _, ok := s.Detected(fi); ok {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no faults detected: workload too weak to exercise observation and drops")
	}
}
