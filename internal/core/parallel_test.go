package core_test

import (
	"runtime"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/gates"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/serial"
	"fmossim/internal/switchsim"
)

// mixedFaults returns a deterministic mixed-kind fault set for a RAM
// instance: node stuck-at, transistor stuck, and bit-line shorts.
func mixedFaults(m *ram.RAM, nNode, nTrans int) []fault.Fault {
	fs := fault.NodeStuckFaults(m.Net, fault.Options{})
	if len(fs) > nNode {
		fs = fs[:nNode]
	}
	ts := fault.TransistorStuckFaults(m.Net, fault.Options{})
	if len(ts) > nTrans {
		ts = ts[:nTrans]
	}
	fs = append(fs, ts...)
	fs = append(fs, fault.BridgeFaults(m.BitlineShorts)...)
	return fs
}

// TestParallelMatchesSerialEngine is the engine-equivalence suite of the
// parallel fault-circuit executor: on RAM64 with a mixed-kind fault set,
// the concurrent simulator at Workers=1 and Workers=4 must produce
// bit-identical divergence records and detections after every pattern,
// agree with the serial reference on every first detection, and keep all
// store/interest/scratch invariants intact throughout.
func TestParallelMatchesSerialEngine(t *testing.T) {
	m := ram.RAM64()
	faults := mixedFaults(m, 40, 20)
	seq := march.Sequence1(m)
	if testing.Short() {
		seq.Patterns = seq.Patterns[:60]
	}
	opts := func(workers int) core.Options {
		return core.Options{
			Observe: []netlist.NodeID{m.DataOut},
			Workers: workers,
		}
	}

	s1, err := core.New(m.Net, faults, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	sN, err := core.New(m.Net, faults, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Workers() != 1 || sN.Workers() != 4 {
		t.Fatalf("worker pools %d/%d, want 1/4", s1.Workers(), sN.Workers())
	}

	for pi := range seq.Patterns {
		s1.RunPattern(&seq.Patterns[pi])
		sN.RunPattern(&seq.Patterns[pi])
		for fi := range faults {
			r1, rN := s1.Records(fi), sN.Records(fi)
			if len(r1) != len(rN) {
				t.Fatalf("pattern %d fault %s: %d records (workers=1) vs %d (workers=4)",
					pi, faults[fi].Describe(m.Net), len(r1), len(rN))
			}
			for n, v := range r1 {
				if rN[n] != v {
					t.Fatalf("pattern %d fault %s node %s: workers=1 %s vs workers=4 %s",
						pi, faults[fi].Describe(m.Net), m.Net.Name(n), v, rN[n])
				}
			}
		}
		if err := s1.CheckInvariants(); err != nil {
			t.Fatalf("pattern %d workers=1: %v", pi, err)
		}
		if err := sN.CheckInvariants(); err != nil {
			t.Fatalf("pattern %d workers=4: %v", pi, err)
		}
	}

	// Detections must agree between worker counts and with the serial
	// reference (oscillating circuits excluded: X-resolution is event-
	// order dependent).
	ref, err := serial.Run(m.Net, faults, seq, serial.Options{
		Observe: []netlist.NodeID{m.DataOut}, StopOnDetect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for fi := range faults {
		d1, ok1 := s1.Detected(fi)
		dN, okN := sN.Detected(fi)
		if ok1 != okN || (ok1 && d1 != dN) {
			t.Errorf("fault %s: detection differs between worker counts", faults[fi].Describe(m.Net))
		}
		if s1.Oscillated(fi) || ref.PerFault[fi].Oscillated {
			continue
		}
		fr := ref.PerFault[fi]
		if ok1 != fr.Detected {
			t.Errorf("fault %s: concurrent detected=%v serial=%v", faults[fi].Describe(m.Net), ok1, fr.Detected)
			continue
		}
		if ok1 && (d1.Pattern != fr.Pattern || d1.Setting != fr.Setting ||
			d1.Output != fr.Output || d1.Good != fr.Good || d1.Faulty != fr.Faulty) {
			t.Errorf("fault %s: concurrent detection %+v != serial {%d %d %v %s %s}",
				faults[fi].Describe(m.Net), d1, fr.Pattern, fr.Setting, fr.Output, fr.Good, fr.Faulty)
		}
	}
}

// TestWorkersDefault: Workers=0 selects GOMAXPROCS, capped at the fault
// count.
func TestWorkersDefault(t *testing.T) {
	m := ram.New(ram.Config{Rows: 2, Cols: 2})
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	s, err := core.New(m.Net, faults, core.Options{Observe: []netlist.NodeID{m.DataOut}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Workers(), max(1, min(runtime.GOMAXPROCS(0), len(faults))); got != want {
		t.Errorf("default workers = %d, want min(GOMAXPROCS, %d faults) = %d", got, len(faults), want)
	}
}

// TestWorkersCappedAtFaults: a batch never holds more workers than it has
// faults (each holds a scratch circuit, a solver and node-sized arrays),
// and never fewer than one, whatever Workers asks for.
func TestWorkersCappedAtFaults(t *testing.T) {
	m := ram.New(ram.Config{Rows: 2, Cols: 2})
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	for _, tc := range []struct{ workers, faults, want int }{
		{1000, 4, 4}, {3, 4, 3}, {4, 4, 4}, {5, 4, 4}, {7, 1, 1}, {7, 0, 1},
	} {
		s, err := core.New(m.Net, faults[:tc.faults], core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if s.Workers() != tc.want {
			t.Errorf("Workers %d over %d faults: pool of %d, want %d", tc.workers, tc.faults, s.Workers(), tc.want)
		}
	}
}

// twoOutNet builds two independent nMOS inverters o1 = !a, o2 = !a from a
// shared input, so a fault on "a" diverges at both observed outputs in
// the same observation.
func twoOutNet() *netlist.Network {
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 2})
	a := b.Input("a", logic.Lo)
	o1 := b.Node("o1")
	o2 := b.Node("o2")
	gates.NInv(b, a, o1, "i1")
	gates.NInv(b, a, o2, "i2")
	return b.Finalize()
}

// TestObserveDropOrdering covers drop-during-observe: a circuit detected
// and dropped at the first observed output must be skipped cleanly at
// later outputs of the same observation (its records are already purged),
// while other circuits at the same outputs are still examined, and the
// stores stay consistent.
func TestObserveDropOrdering(t *testing.T) {
	nw := twoOutNet()
	o1, o2 := nw.MustLookup("o1"), nw.MustLookup("o2")
	aID := nw.MustLookup("a")

	// a-sa1 diverges at BOTH outputs (good: a=0 → o1=o2=1; faulty: 0,0).
	// o2-sa0 diverges only at the second output.
	faults := []fault.Fault{
		{Kind: fault.NodeStuck1, Node: aID},
		{Kind: fault.NodeStuck0, Node: o2},
	}
	sim, err := core.New(nw, faults, core.Options{Observe: []netlist.NodeID{o1, o2}})
	if err != nil {
		t.Fatal(err)
	}
	// One pattern with a no-change setting: both faults already diverge at
	// the reset state, so the first observation sees records on o1 and o2.
	p := switchsim.Pattern{Settings: []switchsim.Setting{
		switchsim.MustVector(nw, map[string]logic.Value{"a": logic.Lo}),
	}}
	ps := sim.RunPattern(&p)
	if ps.Detected != 2 {
		t.Fatalf("detected %d of 2 faults in the first observation", ps.Detected)
	}
	// a-sa1 must be credited to the FIRST output it diverges on, even
	// though it also held a record on o2 when it was dropped.
	d0, ok := sim.Detected(0)
	if !ok || d0.Output != o1 {
		t.Errorf("a-sa1 detected at %v (ok=%v), want first output o1", d0.Output, ok)
	}
	d1, ok := sim.Detected(1)
	if !ok || d1.Output != o2 {
		t.Errorf("o2-sa0 detected at %v (ok=%v), want o2", d1.Output, ok)
	}
	if sim.LiveFaults() != 0 {
		t.Errorf("both circuits should be dropped, %d live", sim.LiveFaults())
	}
	// Dropping purged records mid-observation; the stores must be
	// consistent and further stepping must not resurrect anything.
	if err := sim.CheckInvariants(); err != nil {
		t.Error(err)
	}
	sim.StepSetting(switchsim.MustVector(nw, map[string]logic.Value{"a": logic.Hi}))
	if n := len(sim.Records(0)) + len(sim.Records(1)); n != 0 {
		t.Errorf("dropped circuits gained %d records after stepping", n)
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
