package core

import (
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestObserveDetectsRecordHoldersInFaultOrder: Observe scans dout's
// interest row, which also holds circuits interested in dout without a
// record there (through a fault site or a gated neighbour). Under NeverDrop
// every circuit stays in the row, so every observation must report only
// circuits whose record at dout is the detected faulty value and differs
// from the good one — never an interest bit alone — and report them in
// ascending fault order across lane words, as a scan of per-node state
// lists sorted by circuit id would.
func TestObserveDetectsRecordHoldersInFaultOrder(t *testing.T) {
	m := ram.RAM64()
	faults := wideUniverse(m)
	seq := *march.Sequence1(m)
	seq.Patterns = seq.Patterns[:120]
	o := m.DataOut
	var b *FaultBatch
	interestOnly, multiWord := 0, false
	opts := Options{Observe: []netlist.NodeID{o}, Workers: 1, Drop: NeverDrop}
	opts.OnObserve = func(p BatchProgress) {
		row := b.interestMask[int(o)*b.words : (int(o)+1)*b.words]
		for w, word := range row {
			for ; word != 0; word &= word - 1 {
				if _, ok := b.faults[w<<6+bits.TrailingZeros64(word)].recs.get(o); !ok {
					interestOnly++
				}
			}
		}
		det := p.Detected
		for i, fi := range det {
			if i > 0 && det[i-1] >= fi {
				t.Fatalf("pattern %d: detections %v are not in ascending fault order", p.Pattern, det)
			}
			d := b.faults[fi].det
			v, ok := b.faults[fi].recs.get(o)
			if d.Output != o || !ok || v != d.Faulty || v == d.Good {
				t.Fatalf("pattern %d: %s detected as %+v, holding record (%v, %v) at dout",
					p.Pattern, faults[fi].Describe(m.Net), d, v, ok)
			}
		}
		if len(det) > 1 && det[0]>>6 != det[len(det)-1]>>6 {
			multiWord = true
		}
	}
	rec := Record(m.Net, &seq, opts)
	var err error
	if b, err = NewFaultBatch(switchsim.NewTables(m.Net), faults, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunRecording(nil, rec, &seq); err != nil {
		t.Fatal(err)
	}
	if interestOnly == 0 || !multiWord {
		t.Fatalf("the workload never put an interest-only bit in dout's row (%d) or detected across lane words (%v)",
			interestOnly, multiWord)
	}
}

// TestCheckInvariantsRejectsRecordEqualToGood is the negative control for
// the invariant Observe relies on: a live circuit's record that repeats
// the good value at its node is reported.
func TestCheckInvariantsRejectsRecordEqualToGood(t *testing.T) {
	m := ram.RAM64()
	seq := *march.Sequence1(m)
	seq.Patterns = seq.Patterns[:8]
	opts := Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1, Drop: NeverDrop}
	rec := Record(m.Net, &seq, opts)
	b, err := NewFaultBatch(switchsim.NewTables(m.Net), wideUniverse(m), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunRecording(nil, rec, &seq); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, fs := range b.faults {
		if fs.recs.size() > 0 {
			fs.recs.vals[0] = b.good.Value(fs.recs.nodes[0])
			err := b.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "equals the good value") {
				t.Fatalf("a record equal to the good value passed the invariants: %v", err)
			}
			return
		}
	}
	t.Fatal("no circuit holds a record")
}

// TestMonoAndReplayReportOneEventStream: a monolithic run steps its live
// good circuit through the pattern loop a replayed batch runs, so with
// OnObserve set it reports the BatchProgress sequence RunBatch reports
// over the same universe and its recording, and the same per-pattern live
// and detected counts. The universe has duplicate faults (class members
// share a detection) and is detected completely, so the stream runs on
// through the dead tail.
func TestMonoAndReplayReportOneEventStream(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	faults = append(faults, faults[:16]...)
	withEvents := func(events *[]BatchProgress) Options {
		return Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1, OnObserve: func(p BatchProgress) {
			p.Detected = slices.Clone(p.Detected) // the batch reuses the slice
			*events = append(*events, p)
		}}
	}
	var monoEvents, replayEvents []BatchProgress
	sim, err := New(m.Net, faults, withEvents(&monoEvents))
	if err != nil {
		t.Fatal(err)
	}
	var mono []BatchPattern
	for _, ps := range sim.Run(seq).PerPattern {
		mono = append(mono, BatchPattern{LiveBefore: ps.LiveBefore, LiveAfter: ps.LiveAfter, Detected: ps.Detected})
	}
	opts := withEvents(&replayEvents)
	br, err := RunBatch(nil, switchsim.NewTables(m.Net), faults, Record(m.Net, seq, opts), seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mono, br.PerPattern) {
		t.Fatal("the monolithic run's pattern counts differ from the replay's")
	}
	if len(monoEvents) != seq.NumSettings() || !reflect.DeepEqual(monoEvents, replayEvents) {
		t.Fatalf("%d monolithic and %d replayed events over %d settings, or they differ",
			len(monoEvents), len(replayEvents), seq.NumSettings())
	}
	if last := monoEvents[len(monoEvents)-1]; last.LiveFaults != 0 || last.DetectedTotal != len(faults) {
		t.Fatalf("the run ends with %d live and %d of %d detected: want an empty batch",
			last.LiveFaults, last.DetectedTotal, len(faults))
	}
}

// TestFaultValueAfterEveryDrop: once a monolithic run has dropped every
// fault, a dropped fault's circuit reads as the good circuit at every
// node, though the batch stopped mirroring the good circuit when it
// emptied.
func TestFaultValueAfterEveryDrop(t *testing.T) {
	m := ram.RAM64()
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	sim, err := New(m.Net, faults, Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(march.Sequence1(m))
	if sim.LiveFaults() != 0 {
		t.Fatalf("%d faults still live: the test needs every fault dropped", sim.LiveFaults())
	}
	for fi := range faults {
		for n := 0; n < m.Net.NumNodes(); n++ {
			id := netlist.NodeID(n)
			if got, want := sim.FaultValue(fi, id), sim.Good().Value(id); got != want {
				t.Fatalf("dropped fault %d reads %v at %s, the good circuit %v", fi, got, m.Net.Name(id), want)
			}
		}
	}
}
