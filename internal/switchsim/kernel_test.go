package switchsim_test

import (
	"math/rand"
	"testing"

	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
	"fmossim/internal/testnet"
)

// TestKernelMatchesOracleRAM64 checks every vicinity solve of a RAM64
// sequence-1 good run, and of stuck-at lanes replayed against its
// trajectories, against the pre-gather kernel: same members, same new
// values, same Vicinities/NodesSolved/RelaxSteps.
func TestKernelMatchesOracleRAM64(t *testing.T) {
	m := ram.RAM64()
	nw := m.Net
	seq := march.Sequence1(m)
	if testing.Short() {
		short := *seq
		short.Patterns = seq.Patterns[:48]
		seq = &short
	}
	tab := switchsim.NewTables(nw)
	good := switchsim.NewCircuit(tab)
	gsv := switchsim.NewSolver(tab)
	gsv.Record = true
	goodOracle := switchsim.AttachKernelOracle(t, gsv)

	// One lane per stuck-at fault on a spread of storage nodes, each a
	// full faulty circuit replayed against the good trajectory with the
	// batch engine's static set: the fault's neighbourhood plus every
	// node where the lane already differs from the good circuit, with
	// the terminals those gate.
	type lane struct {
		node   netlist.NodeID
		c      *switchsim.Circuit
		sv     *switchsim.Solver
		oracle *switchsim.KernelOracle
	}
	var lanes []*lane
	for i := 0; i < nw.NumNodes() && len(lanes) < 24; i += 7 {
		n := netlist.NodeID(i)
		if nw.Node(n).Kind == netlist.Input {
			continue
		}
		ln := &lane{node: n, c: switchsim.NewCircuit(tab), sv: switchsim.NewSolver(tab)}
		ln.oracle = switchsim.AttachKernelOracle(t, ln.sv)
		ln.c.ForceNode(n, logic.Value(len(lanes)%2))
		ln.sv.SettleAll(ln.c)
		lanes = append(lanes, ln)
	}
	gsv.Init(good)

	ix := switchsim.NewReplayIndex(tab)
	div := make([]uint64, nw.NumNodes())
	for pi := range seq.Patterns {
		for _, set := range seq.Patterns[pi].Settings {
			for i := range div {
				div[i] = 0
			}
			for li, ln := range lanes {
				mark := func(n netlist.NodeID) {
					for _, u := range staticDivSet(nw, n) {
						div[u] |= 1 << uint(li)
					}
				}
				mark(ln.node)
				for i := 0; i < nw.NumNodes(); i++ {
					if n := netlist.NodeID(i); ln.c.Value(n) != good.Value(n) {
						mark(n)
					}
				}
			}
			res := gsv.Step(good, set)
			if res.Oscillated {
				t.Fatal("RAM64 good circuit oscillated")
			}
			ix.Build(&gsv.Traj, 1, div, nil)
			for li, ln := range lanes {
				ln.sv.SettleReplayIndexed(ln.c, ln.sv.ApplySetting(ln.c, set), ix, 0, uint(li))
			}
		}
	}
	replayed, ghosts := 0, goodOracle.Ghosts
	for _, ln := range lanes {
		replayed += ln.oracle.Solves
		ghosts += ln.oracle.Ghosts
	}
	if goodOracle.Solves == 0 || goodOracle.Multi == 0 || replayed == 0 {
		t.Fatalf("oracle saw %d good solves (%d multi-node), %d replay solves",
			goodOracle.Solves, goodOracle.Multi, replayed)
	}
	t.Logf("%d good solves (%d multi-node), %d replay solves, %d with a ghost neighbour",
		goodOracle.Solves, goodOracle.Multi, replayed, ghosts)
}

// soupKernelRun drives one random transistor soup — X inputs, a pinned
// transistor and a forced node among them — through a few settings with
// the oracle attached, and returns it.
func soupKernelRun(t testing.TB, seed int64, xProb int) *switchsim.KernelOracle {
	rng := rand.New(rand.NewSource(seed))
	tc := testnet.Soup(rng)
	nw := tc.Net
	sim := switchsim.NewSimulator(nw)
	oracle := switchsim.AttachKernelOracle(t, sim.Solver)
	if nw.NumTransistors() > 0 && rng.Intn(2) == 0 {
		sim.Circuit.PinTransistor(netlist.TransID(rng.Intn(nw.NumTransistors())), logic.Value(rng.Intn(2)))
	}
	if rng.Intn(2) == 0 {
		sim.Circuit.ForceNode(tc.Outputs[rng.Intn(len(tc.Outputs))], logic.Value(rng.Intn(3)))
	}
	sim.Init()
	for i := 0; i < 6; i++ {
		sim.Step(tc.RandomSetting(rng, xProb))
	}
	return oracle
}

// TestKernelMatchesOracleSoups is the same check over seeded random
// soups. They reach what no RAM does: a neighbour stamped by an earlier
// vicinity of the round behind a transistor that closed since (the ghost
// rule of solveVicinity) — the test insists it was reached.
func TestKernelMatchesOracleSoups(t *testing.T) {
	n := int64(10000)
	if testing.Short() {
		n = 1500
	}
	solves, multi, ghosts := 0, 0, 0
	for seed := int64(0); seed < n; seed++ {
		o := soupKernelRun(t, seed, int(seed%4)*10)
		solves, multi, ghosts = solves+o.Solves, multi+o.Multi, ghosts+o.Ghosts
	}
	if ghosts == 0 {
		t.Errorf("no ghost neighbour in %d multi-node solves: the soups no longer reach the rule", multi)
	}
	t.Logf("%d soups: %d solves, %d multi-node, %d with a ghost neighbour", n, solves, multi, ghosts)
}

// FuzzVicinityKernel lets the fuzzer pick the soup.
func FuzzVicinityKernel(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed%4)*10)
	}
	f.Fuzz(func(t *testing.T, seed int64, xProb uint8) {
		soupKernelRun(t, seed, int(xProb%101))
	})
}

// TestKernelGhostNeighbour builds the ghost case by hand. One setting
// perturbs v, g and u in that order. v is solved alone; g rises and closes
// the pass transistor between v and u on the spot; u is then explored with
// its permanent neighbour w, finds v already stamped, and so relaxes
// against v as a ghost: v's finished strengths flow into {u, w} and v is
// requeued, but keeps its value. New kernel and old agree on every value
// and count.
func TestKernelGhostNeighbour(t *testing.T) {
	for _, vVal := range []logic.Value{logic.Hi, logic.Lo, logic.X} {
		b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 3})
		on := b.Input("on", logic.Hi)
		i1Init := logic.Lo
		if vVal == logic.Lo {
			i1Init = logic.Hi // the setting must change i1 to perturb v
		}
		i1 := b.Input("i1", i1Init)
		i2 := b.Input("i2", logic.Lo)
		i3 := b.Input("i3", logic.Lo)
		v, g, u, w := b.Node("v"), b.Node("g"), b.SizedNode("u", 2), b.Node("w")
		b.StrengthTrans(logic.NType, 3, on, i1, v, "drive.v")
		b.StrengthTrans(logic.NType, 3, on, i2, g, "drive.g")
		b.StrengthTrans(logic.NType, 1, on, i3, u, "drive.u")
		b.StrengthTrans(logic.NType, 2, g, v, u, "pass")
		b.StrengthTrans(logic.NType, 2, on, u, w, "tie")
		nw := b.Finalize()

		sim := switchsim.NewSimulator(nw)
		oracle := switchsim.AttachKernelOracle(t, sim.Solver)
		sim.Init()
		if got := sim.Circuit.TransState(netlist.TransID(3)); got != logic.Lo {
			t.Fatalf("pass transistor starts %s, want 0", got)
		}
		sim.Step(switchsim.Setting{{Node: i1, Value: vVal}, {Node: i2, Value: logic.Hi}, {Node: i3, Value: logic.Hi}})
		if oracle.Ghosts == 0 {
			t.Fatalf("v=%s: no solve read a ghost neighbour", vVal)
		}
		if got := sim.Circuit.Value(v); got != vVal {
			t.Errorf("v=%s: ghost v ended %s", vVal, got)
		}
	}
}
