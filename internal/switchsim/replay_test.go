package switchsim_test

import (
	"math/rand"
	"testing"

	"fmossim/internal/gates"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
	"fmossim/internal/testnet"
)

// chainNet builds a 4-stage nMOS inverter chain with input "a".
func chainNet() *netlist.Network {
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 2})
	in := b.Input("a", logic.Lo)
	prev := in
	for i := 0; i < 4; i++ {
		out := b.Node([]string{"n0", "n1", "n2", "n3"}[i])
		gates.NInv(b, prev, out, []string{"i0", "i1", "i2", "i3"}[i])
		prev = out
	}
	return b.Finalize()
}

func TestTrajectoryRecording(t *testing.T) {
	nw := chainNet()
	tab := switchsim.NewTables(nw)
	c := switchsim.NewCircuit(tab)
	sv := switchsim.NewSolver(tab)
	sv.Record = true
	sv.Init(c)

	set := switchsim.MustVector(nw, map[string]logic.Value{"a": logic.Hi})
	res := sv.Step(c, set)

	if sv.Traj.NumRounds() != res.Rounds {
		t.Fatalf("trajectory has %d rounds, settle reported %d", sv.Traj.NumRounds(), res.Rounds)
	}
	// Every recorded change must match the circuit's evolution: the final
	// recorded value per node equals the circuit's final value, and
	// changed nodes ⊆ SettleResult.Changed.
	changed := map[netlist.NodeID]bool{}
	for _, n := range res.Changed {
		changed[n] = true
	}
	final := map[netlist.NodeID]logic.Value{}
	total := 0
	members, changes := switchsim.Vicinities(&sv.Traj)
	for r := 0; r < sv.Traj.NumRounds(); r++ {
		lo, hi := sv.Traj.RoundSpan(r)
		for vi := lo; vi < hi; vi++ {
			if len(members[vi]) == 0 {
				t.Fatal("empty vicinity recorded")
			}
			for _, ch := range changes[vi] {
				if !changed[ch.Node] {
					t.Errorf("recorded change on %s not in Changed", nw.Name(ch.Node))
				}
				final[ch.Node] = ch.Value
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no changes recorded for a propagating wave")
	}
	for n, v := range final {
		if c.Value(n) != v {
			t.Errorf("node %s: last recorded %s, circuit has %s", nw.Name(n), v, c.Value(n))
		}
	}
	// The wave ripples one inverter per round: at least 4 rounds.
	if res.Rounds < 4 {
		t.Errorf("chain settled in %d rounds, expected ≥4", res.Rounds)
	}
}

// TestReplayPureAdoption: with no fault and nothing interesting, the
// replay must adopt the whole trajectory and finish in the good state
// without solving a single vicinity.
func TestReplayPureAdoption(t *testing.T) {
	nw := chainNet()
	tab := switchsim.NewTables(nw)
	good := switchsim.NewCircuit(tab)
	gsv := switchsim.NewSolver(tab)
	gsv.Record = true
	gsv.Init(good)

	shadow := switchsim.NewCircuit(tab)
	fsv := switchsim.NewSolver(tab)
	fsv.Init(shadow)

	set := switchsim.MustVector(nw, map[string]logic.Value{"a": logic.Hi})
	// Snapshot pre-step; step good; replay shadow against the trajectory.
	gsv.Step(good, set)

	seeds := fsv.ApplySetting(shadow, set)
	w0 := fsv.Work()
	sr := switchsim.NewScalarReplay(fsv)
	sr.BeginReplay()
	res := sr.SettleReplay(shadow, seeds, &gsv.Traj)
	d := fsv.Work().Sub(w0)

	for i := 0; i < nw.NumNodes(); i++ {
		id := netlist.NodeID(i)
		if shadow.Value(id) != good.Value(id) {
			t.Errorf("node %s: replay %s vs good %s", nw.Name(id), shadow.Value(id), good.Value(id))
		}
	}
	if d.Vicinities != 0 {
		t.Errorf("pure adoption should solve 0 vicinities, solved %d", d.Vicinities)
	}
	if d.AdoptedChanges == 0 {
		t.Error("no adoption work recorded")
	}
	if res.Oscillated {
		t.Error("unexpected oscillation")
	}
}

// TestReplayBlockedVicinitySolved: flagging a mid-chain node as
// interesting forces its vicinity to be solved rather than adopted, with
// identical results (the conservative-blocking property).
func TestReplayBlockedVicinitySolved(t *testing.T) {
	nw := chainNet()
	tab := switchsim.NewTables(nw)
	good := switchsim.NewCircuit(tab)
	gsv := switchsim.NewSolver(tab)
	gsv.Record = true
	gsv.Init(good)

	shadow := switchsim.NewCircuit(tab)
	fsv := switchsim.NewSolver(tab)
	fsv.Init(shadow)

	n2 := nw.MustLookup("n2")
	set := switchsim.MustVector(nw, map[string]logic.Value{"a": logic.Hi})
	gsv.Step(good, set)

	seeds := fsv.ApplySetting(shadow, set)
	w0 := fsv.Work()
	sr := switchsim.NewScalarReplay(fsv)
	sr.BeginReplay()
	sr.SeedDiverged(n2)
	sr.SettleReplay(shadow, seeds, &gsv.Traj)
	d := fsv.Work().Sub(w0)

	if d.Vicinities == 0 {
		t.Error("blocked vicinity should be solved by the wave")
	}
	for i := 0; i < nw.NumNodes(); i++ {
		id := netlist.NodeID(i)
		if shadow.Value(id) != good.Value(id) {
			t.Errorf("node %s: replay %s vs good %s (conservative blocking must not change results)",
				nw.Name(id), shadow.Value(id), good.Value(id))
		}
	}
}

// TestReplayRandomNoFaultMatchesGood: property — replaying an identical
// circuit against the good trajectory reproduces the good state exactly,
// for random structured circuits and stimulus.
func TestReplayRandomNoFaultMatchesGood(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tc := testnet.Structured(rng)
		tab := switchsim.NewTables(tc.Net)
		good := switchsim.NewCircuit(tab)
		gsv := switchsim.NewSolver(tab)
		gsv.Record = true
		gsv.Init(good)
		shadow := switchsim.NewCircuit(tab)
		fsv := switchsim.NewSolver(tab)
		fsv.Init(shadow)
		sr := switchsim.NewScalarReplay(fsv)

		for step := 0; step < 8; step++ {
			set := tc.RandomSetting(rng, 10)
			seeds := fsv.ApplySetting(shadow, set)
			res := gsv.Step(good, set)
			traj := &gsv.Traj
			if res.Oscillated {
				fsv.Settle(shadow, seeds)
				continue
			}
			sr.BeginReplay()
			sr.SettleReplay(shadow, seeds, traj)
			for i := 0; i < tc.Net.NumNodes(); i++ {
				id := netlist.NodeID(i)
				if shadow.Value(id) != good.Value(id) {
					t.Fatalf("seed %d step %d node %s: replay %s vs good %s",
						seed, step, tc.Net.Name(id), shadow.Value(id), good.Value(id))
				}
			}
		}
	}
}
