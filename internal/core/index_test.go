package core

import (
	"testing"

	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestStepBuildsIndexOnlyWhenActive: a batch replaying a recording builds
// its replay index for the initialization step and for exactly the
// settings that activate a circuit, and the result is the one an index
// rebuilt before every step gives.
func TestStepBuildsIndexOnlyWhenActive(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	opts := Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	rec := Record(m.Net, seq, opts)
	tab := switchsim.NewTables(m.Net)
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})

	onDemand, err := NewFaultBatch(tab, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := onDemand.RunRecording(nil, rec, seq)
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, st := range got.PerSetting {
		if st.ActiveCircuits > 0 {
			active++
		}
	}
	if active == 0 || active == len(got.PerSetting) {
		t.Fatalf("%d of %d settings activate a circuit: the test needs both kinds", active, len(got.PerSetting))
	}
	if builds := onDemand.ix.Builds(); builds != 1+active {
		t.Errorf("%d index builds for the initialization and %d active settings of %d, want %d",
			builds, active, len(got.PerSetting), 1+active)
	}

	// The same replay with the index of the coming step built after every
	// observation, whether the step will use it or not.
	var always *FaultBatch
	next := 1
	eager := opts
	eager.OnObserve = func(BatchProgress) {
		next++
		if next < len(rec.Steps) && rec.Steps[next].Traj != nil {
			always.ix.Build(rec.Steps[next].Traj, always.words, always.interestMask, always.interestNZ)
		}
	}
	if always, err = NewFaultBatch(tab, faults, eager); err != nil {
		t.Fatal(err)
	}
	want, err := always.RunRecording(nil, rec, seq)
	if err != nil {
		t.Fatal(err)
	}
	if always.ix.Builds() <= onDemand.ix.Builds() {
		t.Fatalf("eager replay built %d indexes, on-demand %d", always.ix.Builds(), onDemand.ix.Builds())
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); string(g) != string(w) {
		t.Fatalf("on-demand result differs from always-build\ngot:  %.400s\nwant: %.400s", g, w)
	}
}
