package core

import (
	"context"
	"sync/atomic"
	"testing"

	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestMaterializeMatchesIndependentBuild holds every lane-step's
// materialization to a circuit built another way. RAM64 under both sequences
// with the wide universe (storage and input stuck-ats, transistors stuck
// open and closed, bridges), one worker and three: once a lane is
// materialized, its scratch must equal a fresh circuit loaded with prev's
// node values, the lane's records written over them, every transistor
// rederived from its gate, and the fault applied; once its fault is dropped,
// the scratch must carry nothing the next lane's copy would not overwrite —
// no pin, no force, input-likeness as the tables have it.
func TestMaterializeMatchesIndependentBuild(t *testing.T) {
	m := ram.RAM64()
	faults := wideUniverse(m)
	tab := switchsim.NewTables(m.Net)
	// Sequence 1 in full on one worker; elsewhere the head, where every
	// circuit is live and the fan-out is widest (each lane-step costs the
	// test a fresh circuit, thirty times that under the race detector).
	for _, tc := range []struct {
		full     *switchsim.Sequence
		workers  int
		patterns int
	}{
		{march.Sequence1(m), 1, 1 << 30},
		{march.Sequence1(m), 3, 60},
		{march.Sequence2(m), 1, 60},
		{march.Sequence2(m), 3, 60},
	} {
		workers := tc.workers
		if testing.Short() {
			tc.patterns = min(tc.patterns, 40)
		}
		seq := *tc.full
		seq.Patterns = seq.Patterns[:min(tc.patterns, len(seq.Patterns))]
		opts := Options{Observe: []netlist.NodeID{m.DataOut}, Workers: workers}
		rec := Record(m.Net, &seq, opts)
		b, err := NewFaultBatch(tab, faults, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Lane-steps seen per fault kind; the hooks run on the workers'
		// goroutines.
		var seen [fault.Open + 1]atomic.Int64
		var inputStuck atomic.Int64
		for _, w := range b.workers {
			w.onLane = func(ci CircuitID, materialized bool) {
				if t.Failed() {
					return // one lane's report is enough
				}
				fs := b.faults[ci-1]
				name := fs.f.Describe(m.Net)
				if !materialized {
					if w.scratch.Faulty() {
						t.Errorf("%s workers=%d %s: scratch keeps a pin or a force after the step", seq.Name, workers, name)
					}
					for i := 0; i < m.Net.NumNodes(); i++ {
						if n := netlist.NodeID(i); w.scratch.IsInputLike(n) != tab.IsInput(n) {
							t.Errorf("%s workers=%d %s: node %s left input-like=%v", seq.Name, workers, name, m.Net.Name(n), !tab.IsInput(n))
						}
					}
					return
				}
				seen[fs.f.Kind].Add(1)
				if fs.f.Kind.IsNodeFault() && tab.IsInput(fs.f.Node) {
					inputStuck.Add(1)
				}
				want := switchsim.NewCircuit(tab)
				want.LoadState(b.prev.Snapshot())
				for i, n := range fs.recs.nodes {
					want.OverrideValue(n, fs.recs.vals[i])
				}
				want.RecomputeTransistors()
				fs.f.Apply(want)
				if !w.scratch.StateEquals(want) {
					t.Errorf("%s workers=%d pattern %d setting %d %s (%d records): materialized scratch differs from the independent build",
						seq.Name, workers, b.patternIdx, b.settingIdx, name, fs.recs.size())
				}
			}
		}
		if _, err := b.RunRecording(context.Background(), rec, &seq); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			t.FailNow()
		}
		for _, k := range []fault.Kind{fault.NodeStuck0, fault.NodeStuck1, fault.TransStuckOpen, fault.TransStuckClosed, fault.Bridge} {
			if seen[k].Load() == 0 {
				t.Errorf("%s workers=%d: no lane-step of a %s fault", seq.Name, workers, k)
			}
		}
		var laneSteps int64
		for k := range seen {
			laneSteps += seen[k].Load()
		}
		t.Logf("%s workers=%d: %d lane-steps over %d patterns", seq.Name, workers, laneSteps, len(seq.Patterns))
		if inputStuck.Load() == 0 {
			t.Errorf("%s workers=%d: no lane-step of a stuck input", seq.Name, workers)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Errorf("%s workers=%d: %v", seq.Name, workers, err)
		}
	}
}
