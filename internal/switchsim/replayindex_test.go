package switchsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
	"fmossim/internal/testnet"
)

// staticDivSet mimics the batch engine's static interest neighborhood of a
// forced storage node: the node itself, its channel terminals, and the
// channel terminals of transistors it gates (storage nodes only).
func staticDivSet(nw *netlist.Network, n netlist.NodeID) []netlist.NodeID {
	seen := map[netlist.NodeID]bool{n: true}
	out := []netlist.NodeID{n}
	add := func(m netlist.NodeID) {
		if nw.Node(m).Kind != netlist.Input && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	for _, t := range nw.Channel(n) {
		add(nw.Transistor(t).Other(n))
	}
	for _, t := range nw.GatedBy(n) {
		add(nw.Transistor(t).Source)
		add(nw.Transistor(t).Drain)
	}
	return out
}

// TestIndexedReplayMatchesScalar: property — for random structured
// circuits with random stuck-node faults, SettleReplayIndexed driven by a
// prebuilt word-packed ReplayIndex reproduces the scalar replay oracle
// exactly: same values, same Changed/Explored sets in the same order, same
// round counts. Two faults share one index as separate lanes (different
// words and bit positions), checking cross-lane isolation of the packed
// static flags.
func TestIndexedReplayMatchesScalar(t *testing.T) {
	type lane struct {
		word            int
		bit             uint
		node            netlist.NodeID
		static          []netlist.NodeID
		scalar, indexed *switchsim.Circuit
		ssv, isv        *switchsim.Solver
		sr              *switchsim.ScalarReplay
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tc := testnet.Structured(rng)
		nw := tc.Net
		tab := switchsim.NewTables(nw)

		good := switchsim.NewCircuit(tab)
		gsv := switchsim.NewSolver(tab)
		gsv.Record = true
		gsv.Init(good)

		var storage []netlist.NodeID
		for i := 0; i < nw.NumNodes(); i++ {
			n := netlist.NodeID(i)
			if nw.Node(n).Kind != netlist.Input {
				storage = append(storage, n)
			}
		}

		const words = 2
		lanes := []*lane{{word: 0, bit: 3}, {word: 1, bit: 37}}
		div := make([]uint64, nw.NumNodes()*words)
		for _, ln := range lanes {
			ln.node = storage[rng.Intn(len(storage))]
			val := logic.Value(rng.Intn(2))
			ln.static = staticDivSet(nw, ln.node)
			for _, u := range ln.static {
				div[int(u)*words+ln.word] |= 1 << ln.bit
			}
			ln.scalar = switchsim.NewCircuit(tab)
			ln.ssv = switchsim.NewSolver(tab)
			ln.sr = switchsim.NewScalarReplay(ln.ssv)
			ln.indexed = switchsim.NewCircuit(tab)
			ln.isv = switchsim.NewSolver(tab)
			// Power-on with the fault present, both replicas identically.
			ln.scalar.ForceNode(ln.node, val)
			ln.indexed.ForceNode(ln.node, val)
			ln.ssv.SettleAll(ln.scalar)
			ln.isv.SettleAll(ln.indexed)
		}

		ix := switchsim.NewReplayIndex(tab)
		for step := 0; step < 8; step++ {
			set := tc.RandomSetting(rng, 10)
			resG := gsv.Step(good, set)
			traj := &gsv.Traj
			if resG.Oscillated {
				for _, ln := range lanes {
					ln.ssv.Settle(ln.scalar, ln.ssv.ApplySetting(ln.scalar, set))
					ln.isv.Settle(ln.indexed, ln.isv.ApplySetting(ln.indexed, set))
				}
				continue
			}
			ix.Build(traj, words, div, nil)
			for li, ln := range lanes {
				sSeeds := ln.ssv.ApplySetting(ln.scalar, set)
				ln.sr.BeginReplay()
				for _, u := range ln.static {
					ln.sr.SeedDiverged(u)
				}
				resS := ln.sr.SettleReplay(ln.scalar, sSeeds, traj)

				iSeeds := ln.isv.ApplySetting(ln.indexed, set)
				resI := ln.isv.SettleReplayIndexed(ln.indexed, iSeeds, ix, ln.word, ln.bit)

				if resS.Rounds != resI.Rounds || resS.Oscillated != resI.Oscillated {
					t.Fatalf("seed %d step %d lane %d: rounds %d/%v vs %d/%v",
						seed, step, li, resS.Rounds, resS.Oscillated, resI.Rounds, resI.Oscillated)
				}
				if !slices.Equal(resS.Changed, resI.Changed) {
					t.Fatalf("seed %d step %d lane %d: Changed %v vs %v",
						seed, step, li, resS.Changed, resI.Changed)
				}
				if !slices.Equal(resS.Explored, resI.Explored) {
					t.Fatalf("seed %d step %d lane %d: Explored %v vs %v",
						seed, step, li, resS.Explored, resI.Explored)
				}
				for i := 0; i < nw.NumNodes(); i++ {
					id := netlist.NodeID(i)
					if ln.scalar.Value(id) != ln.indexed.Value(id) {
						t.Fatalf("seed %d step %d lane %d node %s: scalar %s vs indexed %s",
							seed, step, li, nw.Name(id), ln.scalar.Value(id), ln.indexed.Value(id))
					}
				}
			}
		}
	}
}

// TestPlainSettleIsNoLane: with no index the settle loop is a plain settle,
// not a lane replay. Init, Step and Settle leave ReplayStats at zero, and
// each indexed replay counts one lane.
func TestPlainSettleIsNoLane(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tc := testnet.Structured(rng)
	tab := switchsim.NewTables(tc.Net)
	good, gsv := switchsim.NewCircuit(tab), switchsim.NewSolver(tab)
	fc, fsv := switchsim.NewCircuit(tab), switchsim.NewSolver(tab)
	gsv.Record = true
	gsv.Init(good)
	fsv.Init(fc)
	ix := switchsim.NewReplayIndex(tab)
	replays := int64(0)
	for step := 0; step < 8; step++ {
		set := tc.RandomSetting(rng, 0)
		osc := gsv.Step(good, set).Oscillated
		seeds := fsv.ApplySetting(fc, set)
		if osc || step%2 == 0 {
			fsv.Settle(fc, seeds)
			continue
		}
		ix.Build(&gsv.Traj, 1, make([]uint64, tc.Net.NumNodes()), nil)
		fsv.SettleReplayIndexed(fc, seeds, ix, 0, 0)
		replays++
	}
	if rs := gsv.ReplayStats(); rs != (switchsim.ReplayStats{}) {
		t.Errorf("the good circuit's settles counted as replays: %+v", rs)
	}
	if got := fsv.ReplayStats().Lanes; got != replays || replays == 0 {
		t.Errorf("%d lanes counted for %d indexed replays", got, replays)
	}
}

// TestIndexedReplayPureAdoption: a lane with no static divergence bits
// adopts the whole trajectory without solving a single vicinity, matching
// the good state exactly — the fast path the word packing exists to share.
func TestIndexedReplayPureAdoption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tc := testnet.Structured(rng)
	nw := tc.Net
	tab := switchsim.NewTables(nw)

	good := switchsim.NewCircuit(tab)
	gsv := switchsim.NewSolver(tab)
	gsv.Record = true
	gsv.Init(good)

	shadow := switchsim.NewCircuit(tab)
	fsv := switchsim.NewSolver(tab)
	fsv.Init(shadow)

	const words = 1
	div := make([]uint64, nw.NumNodes()*words)
	ix := switchsim.NewReplayIndex(tab)

	for step := 0; step < 6; step++ {
		set := tc.RandomSetting(rng, 0)
		resG := gsv.Step(good, set)
		if resG.Oscillated {
			fsv.Settle(shadow, fsv.ApplySetting(shadow, set))
			continue
		}
		ix.Build(&gsv.Traj, words, div, nil)
		seeds := fsv.ApplySetting(shadow, set)
		w0 := fsv.Work()
		fsv.SettleReplayIndexed(shadow, seeds, ix, 0, 0)
		if d := fsv.Work().Sub(w0); d.Vicinities != 0 {
			t.Fatalf("step %d: pure adoption solved %d vicinities", step, d.Vicinities)
		}
		for i := 0; i < nw.NumNodes(); i++ {
			id := netlist.NodeID(i)
			if shadow.Value(id) != good.Value(id) {
				t.Fatalf("step %d node %s: %s vs good %s",
					step, nw.Name(id), shadow.Value(id), good.Value(id))
			}
		}
	}
}

// TestIndexSpansMatchReader: a trajectory holds its vicinity boundaries as
// bits read in order, and Build rebuilds the list starts the walk reads.
// For every step of the RAM64 sequence-1 and sequence-2 recordings, and for
// the scratch trajectories of settles stopped by a low hard cap (whose last
// round is one vicinity with no members), each vicinity's lists through a
// built index are the ones the sequential reader hands to Encode, and the
// reader's lists, back to back, are the trajectory's.
func TestIndexSpansMatchReader(t *testing.T) {
	m := ram.RAM64()
	nw := m.Net
	ix := switchsim.NewReplayIndex(switchsim.NewTables(nw))
	div, divNZ := make([]uint64, nw.NumNodes()), make([]int32, nw.NumNodes())
	memberless := 0
	check := func(name string, tr *switchsim.Trajectory) {
		t.Helper()
		ix.Build(tr, 1, div, divNZ)
		members, changes := switchsim.Vicinities(tr)
		var allM []netlist.NodeID
		var allC []switchsim.Change
		for vi := range members {
			gm, gc := switchsim.IndexedVicinity(ix, vi)
			if !slices.Equal(gm, members[vi]) || !slices.Equal(gc, changes[vi]) {
				t.Fatalf("%s: vicinity %d: the index gives %v / %v, the reader %v / %v",
					name, vi, gm, gc, members[vi], changes[vi])
			}
			if len(members[vi]) == 0 {
				memberless++
			}
			allM, allC = append(allM, members[vi]...), append(allC, changes[vi]...)
		}
		if wm, wc := tr.Lists(); !slices.Equal(allM, wm) || !slices.Equal(allC, wc) {
			t.Fatalf("%s: the reader's %d members and %d changes are not the trajectory's %d and %d",
				name, len(allM), len(allC), len(wm), len(wc))
		}
	}

	for _, seq := range []*switchsim.Sequence{march.Sequence1(m), march.Sequence2(m)} {
		rec := core.Record(nw, seq, core.Options{})
		for i := range rec.Steps {
			check(fmt.Sprintf("%s step %d", seq.Name, i), rec.Steps[i].Traj)
		}
	}
	if memberless != 0 {
		t.Fatalf("the RAM64 recordings hold %d vicinities with no members", memberless)
	}

	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:16]
	sim := switchsim.NewSimulator(nw)
	sv := sim.Solver
	sv.Record, sv.MaxRounds = true, 1
	switchsim.SetHardCap(sv, 3)
	sim.Init()
	check("hard cap init", &sv.Traj)
	for pi := range seq.Patterns {
		for si, set := range seq.Patterns[pi].Settings {
			sim.Step(set)
			check(fmt.Sprintf("hard cap pattern %d setting %d", pi, si), &sv.Traj)
		}
	}
	if memberless == 0 {
		t.Fatal("no hard-capped settle recorded a vicinity with no members")
	}
}
