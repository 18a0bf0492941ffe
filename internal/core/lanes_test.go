package core_test

import (
	"context"
	"encoding/json"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestBatchLaneWidthInvariance: the packed-lane batch produces a
// byte-for-byte identical BatchResult for every lane width and worker
// count — the merge-determinism contract of the word-packed engine. The
// lane width changes only how fault circuits are grouped into 64-bit
// words; 1 is the degenerate one-fault-per-word packing, 7 leaves unused
// high bits in every word, 64 is the dense default.
func TestBatchLaneWidthInvariance(t *testing.T) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	seq := march.Sequence1(m)
	rec := core.Record(m.Net, seq, core.Options{})
	tab := switchsim.NewTables(m.Net)

	run := func(laneWidth, workers int) []byte {
		opts := core.Options{
			Observe:   []netlist.NodeID{m.DataOut},
			Workers:   workers,
			LaneWidth: laneWidth,
		}
		br, err := core.RunBatch(context.Background(), tab, faults, rec, seq, opts)
		if err != nil {
			t.Fatalf("lane width %d, workers %d: %v", laneWidth, workers, err)
		}
		buf, err := json.Marshal(br)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	ref := run(64, 1)
	for _, lw := range []int{1, 7, 8, 64} {
		for _, workers := range []int{1, 4} {
			if lw == 64 && workers == 1 {
				continue
			}
			if got := run(lw, workers); string(got) != string(ref) {
				t.Fatalf("lane width %d, workers %d: BatchResult diverges from the width-64 serial reference", lw, workers)
			}
		}
	}
}

// TestLaneInvariantsAcrossWidths drives the monolithic simulator at
// several lane widths, checking the packed-plane/record/interest
// invariants after every pattern, and that all widths agree on the final
// outcome.
func TestLaneInvariantsAcrossWidths(t *testing.T) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	seq := march.Sequence1(m)

	var refDetected int
	for i, lw := range []int{1, 8, 64} {
		s, err := core.New(m.Net, faults, core.Options{
			Observe:   []netlist.NodeID{m.DataOut},
			Workers:   2,
			LaneWidth: lw,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("lane width %d, after init: %v", lw, err)
		}
		for pi := range seq.Patterns {
			s.RunPattern(&seq.Patterns[pi])
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("lane width %d, after pattern %d: %v", lw, pi, err)
			}
		}
		detected := 0
		for fi := range faults {
			if _, ok := s.Detected(fi); ok {
				detected++
			}
		}
		if i == 0 {
			refDetected = detected
			if detected == 0 {
				t.Fatal("no faults detected: workload too weak to exercise the planes")
			}
		} else if detected != refDetected {
			t.Fatalf("lane width %d detects %d faults, width 1 detected %d", lw, detected, refDetected)
		}
	}
}

// TestLaneWidthValidation rejects out-of-range widths.
func TestLaneWidthValidation(t *testing.T) {
	m := ram.New(ram.Config{Rows: 2, Cols: 2})
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	for _, lw := range []int{-1, 65, 100} {
		_, err := core.New(m.Net, faults, core.Options{
			Observe:   []netlist.NodeID{m.DataOut},
			LaneWidth: lw,
		})
		if err == nil {
			t.Fatalf("LaneWidth %d accepted", lw)
		}
	}
}
