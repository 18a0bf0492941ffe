package core_test

import (
	"math/rand"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/gates"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
	"fmossim/internal/testnet"
)

const (
	L = logic.Lo
	H = logic.Hi
	X = logic.X
)

// invNet builds an nMOS inverter network with input "a", output "out".
func invNet() *netlist.Network {
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 2})
	a := b.Input("a", L)
	out := b.Node("out")
	gates.NInv(b, a, out, "inv")
	return b.Finalize()
}

func toggleSeq(nw *netlist.Network, n int) *switchsim.Sequence {
	seq := &switchsim.Sequence{Name: "toggle"}
	for i := 0; i < n; i++ {
		seq.Patterns = append(seq.Patterns, switchsim.Pattern{
			Name:     "t",
			Settings: []switchsim.Setting{switchsim.MustVector(nw, map[string]logic.Value{"a": logic.Value(i % 2)})},
		})
	}
	return seq
}

func TestInverterStuckFaults(t *testing.T) {
	nw := invNet()
	out := nw.MustLookup("out")
	faults := []fault.Fault{
		{Kind: fault.NodeStuck0, Node: out},
		{Kind: fault.NodeStuck1, Node: out},
	}
	sim, err := core.New(nw, faults, core.Options{Observe: []netlist.NodeID{out}})
	if err != nil {
		t.Fatal(err)
	}
	// Good circuit settles with a=0 -> out=1, so out-sa0 diverges from
	// power-on (the initialization step inserts it) and is detected by the
	// very first observation; out-sa1 is latent until a=1.
	res := sim.Run(toggleSeq(nw, 4))
	if res.Detected != 2 {
		t.Fatalf("detected %d of 2 faults", res.Detected)
	}
	d0, ok0 := sim.Detected(0)
	d1, ok1 := sim.Detected(1)
	if !ok0 || !ok1 {
		t.Fatal("both faults should be detected")
	}
	if d0.Pattern != 0 {
		t.Errorf("out-sa0 detected at pattern %d, want 0", d0.Pattern)
	}
	if d1.Pattern != 1 { // needs a=1 -> good out=0 vs stuck 1
		t.Errorf("out-sa1 detected at pattern %d, want 1", d1.Pattern)
	}
	if !d0.Hard || !d1.Hard {
		t.Error("both detections should be hard (definite vs definite)")
	}
	if sim.LiveFaults() != 0 {
		t.Errorf("all circuits should be dropped, %d live", sim.LiveFaults())
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLatentFaultNoRecordsUntilExcited(t *testing.T) {
	nw := invNet()
	out := nw.MustLookup("out")
	// With a=0 the good out is 1: out-sa1 is latent.
	faults := []fault.Fault{{Kind: fault.NodeStuck1, Node: out}}
	sim, err := core.New(nw, faults, core.Options{Observe: []netlist.NodeID{out}, Drop: core.NeverDrop})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sim.Records(0)); n != 0 {
		t.Errorf("latent fault should have no divergence records, has %d", n)
	}
	// Excite: a=1 makes good out=0 while the fault holds 1.
	sim.StepSetting(switchsim.MustVector(nw, map[string]logic.Value{"a": H}))
	if got := sim.FaultValue(0, out); got != H {
		t.Errorf("faulty out = %s, want stuck 1", got)
	}
	if n := len(sim.Records(0)); n == 0 {
		t.Error("excited fault should carry a divergence record")
	}
	// De-excite: a=0 -> good out=1 again; divergence disappears.
	sim.StepSetting(switchsim.MustVector(nw, map[string]logic.Value{"a": L}))
	if n := len(sim.Records(0)); n != 0 {
		t.Errorf("converged fault should have no records, has %d", n)
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestTransistorStuckFaultDetection(t *testing.T) {
	nw := invNet()
	out := nw.MustLookup("out")
	// The pull-down is the second transistor (load added first).
	var pd netlist.TransID = netlist.NoTrans
	for i := 0; i < nw.NumTransistors(); i++ {
		if nw.Transistor(netlist.TransID(i)).Label == "inv.pd" {
			pd = netlist.TransID(i)
		}
	}
	if pd == netlist.NoTrans {
		t.Fatal("pull-down not found")
	}
	faults := []fault.Fault{
		{Kind: fault.TransStuckOpen, Trans: pd},   // out never pulls low
		{Kind: fault.TransStuckClosed, Trans: pd}, // out never pulls high
	}
	sim, err := core.New(nw, faults, core.Options{Observe: []netlist.NodeID{out}})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(toggleSeq(nw, 4))
	if res.Detected != 2 {
		t.Fatalf("detected %d of 2 transistor faults", res.Detected)
	}
}

func TestBridgeAndOpenFaults(t *testing.T) {
	// Two independent inverters; a bridge candidate shorts their outputs,
	// and one inverter's output reaches the pad through a breakable wire.
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 3})
	a1 := b.Input("a1", L)
	a2 := b.Input("a2", L)
	o1 := b.Node("o1")
	o2 := b.Node("o2")
	pad := b.Node("pad")
	gates.NInv(b, a1, o1, "i1")
	gates.NInv(b, a2, o2, "i2")
	short := b.BridgeCandidate(o1, o2, "short.o1o2")
	wire := b.Breakable(o1, pad, "wire.o1pad")
	nw := b.Finalize()
	padID := nw.MustLookup("pad")

	faults := []fault.Fault{
		{Kind: fault.Bridge, Trans: short},
		{Kind: fault.Open, Trans: wire},
	}
	sim, err := core.New(nw, faults, core.Options{Observe: []netlist.NodeID{padID}})
	if err != nil {
		t.Fatal(err)
	}
	seq := &switchsim.Sequence{Name: "bridge"}
	// a1=0,a2=1: o1=1, o2=0; bridged they fight -> pad differs (X vs 1).
	// The open fault isolates pad, which keeps stale charge; after the
	// first write it matches, so drive opposite values across patterns.
	for _, v := range []map[string]logic.Value{
		{"a1": L, "a2": H},
		{"a1": H, "a2": L},
		{"a1": L, "a2": H},
	} {
		seq.Patterns = append(seq.Patterns, switchsim.Pattern{
			Settings: []switchsim.Setting{switchsim.MustVector(nw, v)},
		})
	}
	res := sim.Run(seq)
	if res.Detected != 2 {
		t.Fatalf("detected %d of 2 bridge/open faults", res.Detected)
	}
}

func TestDropPolicies(t *testing.T) {
	// A fault whose first observable difference is X-vs-definite: a
	// max-strength bridge between two equal-strength CMOS inverter
	// outputs driving opposite values yields X at both.
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 3})
	a1 := b.Input("a1", L)
	a2 := b.Input("a2", L)
	o1 := b.Node("o1")
	o2 := b.Node("o2")
	gates.CInv(b, a1, o1, "i1")
	gates.CInv(b, a2, o2, "i2")
	short := b.StrengthTrans(logic.NType, 3, b.TieLo(), o1, o2, "short")
	nw := b.Finalize()
	o1ID := nw.MustLookup("o1")

	seq := &switchsim.Sequence{Name: "x-detect"}
	seq.Patterns = append(seq.Patterns, switchsim.Pattern{
		Settings: []switchsim.Setting{switchsim.MustVector(nw, map[string]logic.Value{"a1": L, "a2": H})},
	})

	run := func(policy core.DropPolicy) (*core.Simulator, *core.Result) {
		sim, err := core.New(nw, []fault.Fault{{Kind: fault.Bridge, Trans: short}},
			core.Options{Observe: []netlist.NodeID{o1ID}, Drop: policy})
		if err != nil {
			t.Fatal(err)
		}
		return sim, sim.Run(seq)
	}

	sim, res := run(core.DropAnyDifference)
	if res.Detected != 1 || res.HardDetected != 0 {
		t.Errorf("AnyDifference: detected=%d hard=%d, want 1/0", res.Detected, res.HardDetected)
	}
	if sim.LiveFaults() != 0 {
		t.Error("AnyDifference should drop on the X difference")
	}

	sim, res = run(core.DropHardOnly)
	if res.Detected != 0 {
		t.Errorf("HardOnly: X difference should not count, detected=%d", res.Detected)
	}
	if sim.LiveFaults() != 1 {
		t.Error("HardOnly should keep the circuit live")
	}

	sim, res = run(core.NeverDrop)
	if res.Detected != 1 {
		t.Errorf("NeverDrop: detected=%d, want 1", res.Detected)
	}
	if sim.LiveFaults() != 1 {
		t.Error("NeverDrop must not drop")
	}
}

func TestNoObserveError(t *testing.T) {
	nw := invNet()
	if _, err := core.New(nw, nil, core.Options{}); err == nil {
		t.Error("New without observed outputs should fail")
	}
	if _, err := core.New(nw, nil, core.Options{Observe: []netlist.NodeID{999}}); err == nil {
		t.Error("New with out-of-range output should fail")
	}
}

func TestResultAccounting(t *testing.T) {
	nw := invNet()
	out := nw.MustLookup("out")
	faults := fault.NodeStuckFaults(nw, fault.Options{})
	sim, err := core.New(nw, faults, core.Options{Observe: []netlist.NodeID{out}})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(toggleSeq(nw, 6))
	if len(res.PerPattern) != 6 {
		t.Fatalf("PerPattern has %d entries", len(res.PerPattern))
	}
	var gw, fw int64
	for _, ps := range res.PerPattern {
		gw += ps.GoodWork
		fw += ps.FaultWork
	}
	if gw != res.GoodWork || fw != res.FaultWork {
		t.Errorf("work totals mismatch: %d/%d vs %d/%d", gw, fw, res.GoodWork, res.FaultWork)
	}
	cum := res.CumulativeDetections()
	if cum[len(cum)-1] != res.Detected {
		t.Errorf("cumulative detections end at %d, want %d", cum[len(cum)-1], res.Detected)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Error("cumulative detections must be nondecreasing")
		}
	}
	if res.Coverage() <= 0 || res.Coverage() > 1 {
		t.Errorf("coverage %f out of range", res.Coverage())
	}
	wp := res.WorkPerPattern()
	if len(wp) != 6 || wp[0] != res.PerPattern[0].Work() {
		t.Error("WorkPerPattern mismatch")
	}
}

// TestEquivalenceWithSerial is the core correctness property of concurrent
// fault simulation: for every fault, the concurrent simulator's view of
// the faulty circuit (good state + divergence records) must equal, after
// every input setting, the state of an independently simulated full copy
// of the faulty circuit. Faults whose circuits oscillate are excluded:
// X-resolution depends on event order, which legitimately differs between
// whole-circuit and incremental re-simulation.
func TestEquivalenceWithSerial(t *testing.T) {
	nSeeds := int64(30)
	if testing.Short() {
		nSeeds = 8
	}
	for seed := int64(0); seed < nSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tc := testnet.Structured(rng)
		nw := tc.Net

		// A sample of node and transistor faults.
		all := append(fault.NodeStuckFaults(nw, fault.Options{}),
			fault.TransistorStuckFaults(nw, fault.Options{})...)
		faults := fault.Sample(all, 24, rng)

		sim, err := core.New(nw, faults, core.Options{Observe: tc.Outputs, Drop: core.NeverDrop})
		if err != nil {
			t.Fatal(err)
		}

		// Reference: one full circuit per fault, with the fault present
		// from power-on (inject into the reset state, then settle).
		tab := switchsim.NewTables(nw)
		ref := make([]*switchsim.Circuit, len(faults))
		rsolve := switchsim.NewSolver(tab)
		excluded := make([]bool, len(faults))
		for i, f := range faults {
			ref[i] = switchsim.NewCircuit(tab) // NewCircuit resets
			f.Apply(ref[i])
			r := rsolve.SettleAll(ref[i])
			excluded[i] = excluded[i] || r.Oscillated
		}

		compare := func(step int) {
			for fi := range faults {
				if excluded[fi] || sim.Oscillated(fi) {
					excluded[fi] = true
					continue
				}
				for n := 0; n < nw.NumNodes(); n++ {
					id := netlist.NodeID(n)
					want := ref[fi].Value(id)
					got := sim.FaultValue(fi, id)
					if got != want {
						t.Fatalf("seed %d step %d fault %d (%s): node %s concurrent=%s serial=%s",
							seed, step, fi, faults[fi].Describe(nw), nw.Name(id), got, want)
					}
				}
			}
		}
		compare(-1)

		for step := 0; step < 14; step++ {
			setting := tc.RandomSetting(rng, 12)
			sim.StepSetting(setting)
			for fi := range faults {
				r := rsolve.Step(ref[fi], setting)
				excluded[fi] = excluded[fi] || r.Oscillated
			}
			compare(step)
			if err := sim.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestDroppedCircuitStaysDropped: once dropped, a circuit accrues no new
// records and is not re-simulated.
func TestDroppedCircuitStaysDropped(t *testing.T) {
	nw := invNet()
	out := nw.MustLookup("out")
	faults := []fault.Fault{{Kind: fault.NodeStuck0, Node: out}}
	sim, err := core.New(nw, faults, core.Options{Observe: []netlist.NodeID{out}})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(toggleSeq(nw, 2))
	if sim.LiveFaults() != 0 {
		t.Fatal("fault should be dropped")
	}
	if n := len(sim.Records(0)); n != 0 {
		t.Errorf("dropped circuit retains %d records", n)
	}
	// Further stepping must not resurrect it.
	sim.StepSetting(switchsim.MustVector(nw, map[string]logic.Value{"a": H}))
	sim.StepSetting(switchsim.MustVector(nw, map[string]logic.Value{"a": L}))
	if n := len(sim.Records(0)); n != 0 {
		t.Errorf("dropped circuit gained %d records after stepping", n)
	}
	if err := sim.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestEngineEquivalence: on the realistic RAM workload, every faulty
// circuit the concurrent engine tracks (trajectory adoption, lane packing,
// scheduling and all) holds, after every pattern, exactly the state of an
// independent switchsim.Circuit carrying the same fault from power-on, and
// is first detected where that circuit first differs at the output.
// Oscillating circuits are excluded as in TestEquivalenceWithSerial.
func TestEngineEquivalence(t *testing.T) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	nw := m.Net
	faults := fault.NodeStuckFaults(nw, fault.Options{})
	seq := march.Sequence1(m)

	sim, err := core.New(nw, faults, core.Options{
		Observe: []netlist.NodeID{m.DataOut},
		Drop:    core.NeverDrop,
	})
	if err != nil {
		t.Fatal(err)
	}

	tab := switchsim.NewTables(nw)
	rsolve := switchsim.NewSolver(tab)
	good := switchsim.NewCircuit(tab)
	rsolve.SettleAll(good)
	ref := make([]*switchsim.Circuit, len(faults))
	excluded := make([]bool, len(faults))
	firstDiff := make([]int, len(faults)) // pattern of the first output difference, -1 if none
	for i, f := range faults {
		ref[i] = switchsim.NewCircuit(tab)
		f.Apply(ref[i])
		excluded[i] = rsolve.SettleAll(ref[i]).Oscillated
		firstDiff[i] = -1
	}

	for pi := range seq.Patterns {
		p := &seq.Patterns[pi]
		sim.RunPattern(p)
		for si, setting := range p.Settings {
			rsolve.Step(good, setting)
			for fi := range faults {
				if rsolve.Step(ref[fi], setting).Oscillated {
					excluded[fi] = true
				}
				if p.ObserveAt(si) && firstDiff[fi] < 0 && ref[fi].Value(m.DataOut) != good.Value(m.DataOut) {
					firstDiff[fi] = pi
				}
			}
		}
		for fi := range faults {
			if excluded[fi] || sim.Oscillated(fi) {
				excluded[fi] = true
				continue
			}
			for n := 0; n < nw.NumNodes(); n++ {
				id := netlist.NodeID(n)
				if got, want := sim.FaultValue(fi, id), ref[fi].Value(id); got != want {
					t.Fatalf("pattern %d fault %s node %s: concurrent=%s reference=%s",
						pi, faults[fi].Describe(nw), nw.Name(id), got, want)
				}
			}
		}
	}
	checked := 0
	for fi := range faults {
		if excluded[fi] {
			continue
		}
		checked++
		d, ok := sim.Detected(fi)
		if ok != (firstDiff[fi] >= 0) || (ok && d.Pattern != firstDiff[fi]) {
			t.Errorf("fault %s: detected=%v at pattern %d, reference first differs at pattern %d",
				faults[fi].Describe(nw), ok, d.Pattern, firstDiff[fi])
		}
	}
	if checked < len(faults)/2 {
		t.Fatalf("only %d of %d circuits compared", checked, len(faults))
	}
}

// TestEquivalenceWithSerialSoup runs the serial-equivalence property on
// completely random transistor networks — fighting drivers, pass loops,
// charge-sharing chains — where any unsound adoption or scheduling
// shortcut is most likely to surface. Oscillating circuits are excluded
// as in the structured variant.
func TestEquivalenceWithSerialSoup(t *testing.T) {
	nSeeds := int64(25)
	if testing.Short() {
		nSeeds = 6
	}
	for seed := int64(0); seed < nSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		tc := testnet.Soup(rng)
		nw := tc.Net
		all := append(fault.NodeStuckFaults(nw, fault.Options{}),
			fault.TransistorStuckFaults(nw, fault.Options{})...)
		faults := fault.Sample(all, 16, rng)

		sim, err := core.New(nw, faults, core.Options{Observe: tc.Outputs, Drop: core.NeverDrop})
		if err != nil {
			t.Fatal(err)
		}
		tab := switchsim.NewTables(nw)
		ref := make([]*switchsim.Circuit, len(faults))
		rsolve := switchsim.NewSolver(tab)
		excluded := make([]bool, len(faults))
		for i, f := range faults {
			ref[i] = switchsim.NewCircuit(tab)
			f.Apply(ref[i])
			r := rsolve.SettleAll(ref[i])
			excluded[i] = r.Oscillated
		}
		for step := 0; step < 10; step++ {
			setting := tc.RandomSetting(rng, 20)
			sim.StepSetting(setting)
			for fi := range faults {
				r := rsolve.Step(ref[fi], setting)
				excluded[fi] = excluded[fi] || r.Oscillated || sim.Oscillated(fi)
			}
			for fi := range faults {
				if excluded[fi] {
					continue
				}
				for n := 0; n < nw.NumNodes(); n++ {
					id := netlist.NodeID(n)
					if got, want := sim.FaultValue(fi, id), ref[fi].Value(id); got != want {
						t.Fatalf("seed %d step %d fault %d (%s): node %s concurrent=%s serial=%s",
							seed, step, fi, faults[fi].Describe(nw), nw.Name(id), got, want)
					}
				}
			}
			if err := sim.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}
