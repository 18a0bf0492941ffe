package switchsim_test

import (
	"math/rand"
	"slices"
	"testing"

	"fmossim/internal/gates"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
	"fmossim/internal/testnet"
)

// ffLane is one faulty circuit kept twice: ff replays on the compiled
// index and may fast-forward, walk replays on an index that was only
// Built and walks every round. The two must never differ.
type ffLane struct {
	word     int
	bit      uint
	sites    []netlist.NodeID
	ff, walk *switchsim.Circuit
	sf, sw   *switchsim.Solver
	// explored is the fast-forwarding replay's last Explored set.
	explored []netlist.NodeID
}

// ffRig drives a good circuit and its twin lanes setting by setting, the
// way the batch engine does: static divergence rows from the lanes' fault
// sites and present differences, one Build per index, one Compile.
type ffRig struct {
	t      testing.TB
	nw     *netlist.Network
	tab    *switchsim.Tables
	good   *switchsim.Circuit
	pre    *switchsim.Circuit // the good circuit before the step
	gsv    *switchsim.Solver
	lanes  []*ffLane
	ixFF   *switchsim.ReplayIndex
	ixWalk *switchsim.ReplayIndex
	shadow switchsim.WaveShadow
	// reseed, when set, rewrites a lane's seeds before both replays.
	reseed func([]netlist.NodeID) []netlist.NodeID
}

const ffWords = 2

func newFFRig(t testing.TB, nw *netlist.Network) *ffRig {
	tab := switchsim.NewTables(nw)
	r := &ffRig{
		t: t, nw: nw, tab: tab,
		good:   switchsim.NewCircuit(tab),
		pre:    switchsim.NewCircuit(tab),
		gsv:    switchsim.NewSolver(tab),
		ixFF:   switchsim.NewReplayIndex(tab),
		ixWalk: switchsim.NewReplayIndex(tab),
	}
	r.gsv.Record = true
	return r
}

// addLane adds a lane whose fault apply injects; sites is the fault's
// static interest set. Lanes alternate between the two words.
func (r *ffRig) addLane(apply func(c *switchsim.Circuit), sites []netlist.NodeID) *ffLane {
	i := len(r.lanes)
	ln := &ffLane{
		word: i % ffWords, bit: uint(i/ffWords*5) % 64, sites: sites,
		ff: switchsim.NewCircuit(r.tab), walk: switchsim.NewCircuit(r.tab),
		sf: switchsim.NewSolver(r.tab), sw: switchsim.NewSolver(r.tab),
	}
	apply(ln.ff)
	apply(ln.walk)
	r.lanes = append(r.lanes, ln)
	return ln
}

func forceLane(n netlist.NodeID, v logic.Value) func(*switchsim.Circuit) {
	return func(c *switchsim.Circuit) { c.ForceNode(n, v) }
}

func pinLane(tr netlist.TransID, v logic.Value) func(*switchsim.Circuit) {
	return func(c *switchsim.Circuit) { c.PinTransistor(tr, v) }
}

// pinSites is a transistor fault's interest set: its storage terminals.
func pinSites(nw *netlist.Network, tr netlist.TransID) []netlist.NodeID {
	var out []netlist.NodeID
	for _, n := range []netlist.NodeID{nw.Transistor(tr).Source, nw.Transistor(tr).Drain} {
		if nw.Node(n).Kind != netlist.Input {
			out = append(out, n)
		}
	}
	return out
}

// init powers everything on with the faults present.
func (r *ffRig) init() {
	r.gsv.Init(r.good)
	for _, ln := range r.lanes {
		ln.sf.SettleAll(ln.ff)
		ln.sw.SettleAll(ln.walk)
	}
}

// step applies one setting to the good circuit and replays every lane
// twice, comparing everything a caller can see. It reports whether the
// step had a trajectory to replay.
func (r *ffRig) step(set switchsim.Setting) bool {
	t, nw := r.t, r.nw
	div := make([]uint64, nw.NumNodes()*ffWords)
	active := make([]uint64, ffWords)
	for _, ln := range r.lanes {
		active[ln.word] |= 1 << ln.bit
		mark := func(n netlist.NodeID) {
			if nw.Node(n).Kind != netlist.Input {
				div[int(n)*ffWords+ln.word] |= 1 << ln.bit
			}
		}
		for _, n := range ln.sites {
			mark(n)
		}
		for i := 0; i < nw.NumNodes(); i++ {
			if n := netlist.NodeID(i); ln.ff.Value(n) != r.good.Value(n) {
				mark(n)
				for _, tr := range nw.GatedBy(n) {
					mark(nw.Transistor(tr).Source)
					mark(nw.Transistor(tr).Drain)
				}
			}
		}
	}
	r.pre.CopyStateFrom(r.good)
	if r.gsv.Step(r.good, set).Oscillated {
		for _, ln := range r.lanes {
			ln.sf.Settle(ln.ff, ln.sf.ApplySetting(ln.ff, set))
			ln.sw.Settle(ln.walk, ln.sw.ApplySetting(ln.walk, set))
		}
		return false
	}
	r.ixFF.Build(&r.gsv.Traj, ffWords, div, nil)
	r.ixFF.Compile(r.pre, set, nil, active)
	r.ixWalk.Build(&r.gsv.Traj, ffWords, div, nil)
	for li, ln := range r.lanes {
		seedsW := ln.sw.ApplySetting(ln.walk, set)
		if r.reseed != nil {
			seedsW = r.reseed(seedsW)
		}
		r.shadow.Attach(t, ln.sw, ln.walk, r.ixFF, ln.word, ln.bit)
		resW := ln.sw.SettleReplayIndexed(ln.walk, seedsW, r.ixWalk, ln.word, ln.bit)

		seedsF := ln.sf.ApplySetting(ln.ff, set)
		if r.reseed != nil {
			seedsF = r.reseed(seedsF)
		}
		resF := ln.sf.SettleReplayIndexed(ln.ff, seedsF, r.ixFF, ln.word, ln.bit)

		if resF.Rounds != resW.Rounds || resF.Oscillated != resW.Oscillated {
			t.Fatalf("lane %d: %d rounds (oscillated %v), walking %d (%v)", li, resF.Rounds, resF.Oscillated, resW.Rounds, resW.Oscillated)
		}
		if !slices.Equal(resF.Changed, resW.Changed) {
			t.Fatalf("lane %d: Changed %v, walking %v", li, resF.Changed, resW.Changed)
		}
		if !slices.Equal(resF.Explored, resW.Explored) {
			t.Fatalf("lane %d: Explored %v, walking %v", li, resF.Explored, resW.Explored)
		}
		if ln.sf.Work() != ln.sw.Work() {
			t.Fatalf("lane %d: work %+v, walking %+v", li, ln.sf.Work(), ln.sw.Work())
		}
		if !ln.ff.StateEquals(ln.walk) {
			t.Fatalf("lane %d: circuit state differs from the walking lane's", li)
		}
		ln.explored = append(ln.explored[:0], resF.Explored...)
	}
	return true
}

// skipped returns the rounds lane ln has fast-forwarded so far.
func (ln *ffLane) skipped() int64 { return ln.sf.ReplayStats().RoundsSkipped }

// inputStuckSites is the interest set of a stuck input: the storage
// terminals of what it gates, and its storage channel neighbours.
func inputStuckSites(nw *netlist.Network, in netlist.NodeID) []netlist.NodeID {
	var out []netlist.NodeID
	for _, tr := range nw.GatedBy(in) {
		out = append(out, nw.Transistor(tr).Source, nw.Transistor(tr).Drain)
	}
	for _, tr := range nw.Channel(in) {
		out = append(out, nw.Transistor(tr).Other(in))
	}
	return out
}

// TestFastForwardMatchesWalkRAM64: stuck storage nodes, a stuck input and
// pinned transistors of RAM64, replayed under both sequences — a lane that
// rides the compiled good wave ends every setting with the circuit state,
// SettleResult and work counters of one that walks, and the walking lane's
// pend queue is the compiled one at every round boundary the other
// skipped.
func TestFastForwardMatchesWalkRAM64(t *testing.T) {
	m := ram.RAM64()
	nw := m.Net
	for _, seq := range []*switchsim.Sequence{march.Sequence1(m), march.Sequence2(m)} {
		if testing.Short() {
			short := *seq
			short.Patterns = seq.Patterns[:40]
			seq = &short
		}
		r := newFFRig(t, nw)
		for i := 0; i < nw.NumNodes() && len(r.lanes) < 20; i += 9 {
			if n := netlist.NodeID(i); nw.Node(n).Kind != netlist.Input {
				r.addLane(forceLane(n, logic.Value(len(r.lanes)%2)), staticDivSet(nw, n))
			}
		}
		in := nw.Inputs()[len(nw.Inputs())/2]
		r.addLane(forceLane(in, logic.Hi), inputStuckSites(nw, in))
		for i := 3; i < nw.NumTransistors() && len(r.lanes) < 32; i += nw.NumTransistors() / 11 {
			tr := netlist.TransID(i)
			r.addLane(pinLane(tr, logic.Value(i%2)), pinSites(nw, tr))
		}
		r.init()
		for pi := range seq.Patterns {
			for _, set := range seq.Patterns[pi].Settings {
				if !r.step(set) {
					t.Fatal("RAM64 good circuit oscillated")
				}
			}
		}
		var rs switchsim.ReplayStats
		for _, ln := range r.lanes {
			rs.Add(ln.sf.ReplayStats())
		}
		if rs.FastForwarded == 0 || r.shadow.Lanes != int(rs.FastForwarded) || r.shadow.Rounds < int(rs.RoundsSkipped) {
			t.Fatalf("%s: %+v, shadow checked %d lanes over %d round boundaries", seq.Name, rs, r.shadow.Lanes, r.shadow.Rounds)
		}
		t.Logf("%s: %d of %d replays fast-forwarded %d rounds (%d adoptions); %d round boundaries shadowed",
			seq.Name, rs.FastForwarded, rs.Lanes, rs.RoundsSkipped, rs.AdoptionsSkipped, r.shadow.Rounds)
	}
}

// soupFastForward runs one seeded soup with a clean lane, a forced node
// and a pinned transistor through a few settings. It returns the rig for
// its counters.
func soupFastForward(t testing.TB, seed int64, xProb int) *ffRig {
	rng := rand.New(rand.NewSource(seed))
	tc := testnet.Soup(rng)
	nw := tc.Net
	r := newFFRig(t, nw)
	r.addLane(func(*switchsim.Circuit) {}, nil)
	f := tc.Outputs[rng.Intn(len(tc.Outputs))]
	r.addLane(forceLane(f, logic.Value(rng.Intn(3))), staticDivSet(nw, f))
	if nw.NumTransistors() > 0 {
		tr := netlist.TransID(rng.Intn(nw.NumTransistors()))
		r.addLane(pinLane(tr, logic.Value(rng.Intn(2))), pinSites(nw, tr))
	}
	r.init()
	for i := 0; i < 6; i++ {
		r.step(tc.RandomSetting(rng, xProb))
	}
	return r
}

// TestFastForwardMatchesWalkSoups is the same comparison over the seeded
// soups of the kernel oracle: X inputs, fighting drivers, pass loops.
func TestFastForwardMatchesWalkSoups(t *testing.T) {
	n := int64(4000)
	if testing.Short() {
		n = 600
	}
	lanes, rounds := 0, 0
	for seed := int64(0); seed < n; seed++ {
		r := soupFastForward(t, seed, int(seed%4)*10)
		lanes, rounds = lanes+r.shadow.Lanes, rounds+r.shadow.Rounds
	}
	if lanes == 0 {
		t.Fatal("no soup lane ever fast-forwarded")
	}
	t.Logf("%d soups: %d replays fast-forwarded, %d round boundaries shadowed", n, lanes, rounds)
}

// FuzzReplayFastForward lets the fuzzer pick the soup.
func FuzzReplayFastForward(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed%4)*10)
	}
	f.Fuzz(func(t *testing.T, seed int64, xProb uint8) {
		soupFastForward(t, seed, int(xProb%101))
	})
}

// stopNet is the circuit of the hand-built stop conditions: a five-stage
// inverter chain a → n0 → … → n4 that ripples one stage per round, plus
// one pass transistor "pass" gated by n1 between two storage nodes x and y
// that nothing else drives. The good circuit flips pass in round 1 (when
// n1 changes) and perturbs x and y for round 2.
func stopNet() (nw *netlist.Network, pass netlist.TransID) {
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 2})
	prev := b.Input("a", logic.Lo)
	var n1 netlist.NodeID
	for i, name := range []string{"n0", "n1", "n2", "n3", "n4"} {
		out := b.Node(name)
		gates.NInv(b, prev, out, "i"+name)
		if i == 1 {
			n1 = out
		}
		prev = out
	}
	x, y := b.Node("x"), b.Node("y")
	pass = gates.PassN(b, n1, x, y, "pass")
	return b.Finalize(), pass
}

func toggleA(nw *netlist.Network, v logic.Value) switchsim.Setting {
	return switchsim.MustVector(nw, map[string]logic.Value{"a": v})
}

// TestFastForwardStopsBeforePinnedFlip: the lane pins the pass transistor.
// Its gate n1 sits in a vicinity the lane has no flag on, so only the
// pinned-flip rule stops the lane before round 1 — where the good circuit
// flips the transistor and queues x and y, and the lane must do neither.
func TestFastForwardStopsBeforePinnedFlip(t *testing.T) {
	nw, pass := stopNet()
	r := newFFRig(t, nw)
	pinned := r.addLane(pinLane(pass, logic.Lo), pinSites(nw, pass))
	clean := r.addLane(func(*switchsim.Circuit) {}, nil)
	r.init()
	for i, v := range []logic.Value{logic.Hi, logic.Lo, logic.Hi} {
		p0, c0 := pinned.skipped(), clean.skipped()
		r.step(toggleA(nw, v))
		if got := pinned.skipped() - p0; got != 1 {
			t.Errorf("step %d: pinned lane skipped %d rounds, want 1 (the round before its transistor's gate changes)", i, got)
		}
		if got := clean.skipped() - c0; got != int64(r.gsv.Traj.NumRounds()) {
			t.Errorf("step %d: clean lane skipped %d of %d rounds", i, got, r.gsv.Traj.NumRounds())
		}
		for _, name := range []string{"x", "y"} {
			if slices.Contains(pinned.explored, nw.MustLookup(name)) {
				t.Errorf("step %d: the pinned lane was perturbed at %s", i, name)
			}
		}
	}
}

// TestFastForwardDropsForcedNodeFromPend: the lane forces x. The good
// circuit's round-1 flip of the pass transistor queues x and y for round
// 2; the lane resumes there with y alone.
func TestFastForwardDropsForcedNodeFromPend(t *testing.T) {
	nw, _ := stopNet()
	x := nw.MustLookup("x")
	r := newFFRig(t, nw)
	forced := r.addLane(forceLane(x, logic.Hi), staticDivSet(nw, x))
	r.init()
	for i, v := range []logic.Value{logic.Hi, logic.Lo} {
		s0 := forced.skipped()
		r.step(toggleA(nw, v))
		// x and y are flagged for the lane (x is forced, y its channel
		// neighbour), so it rides rounds 0 and 1 and walks from round 2.
		if got := forced.skipped() - s0; got != 2 {
			t.Errorf("step %d: forced lane skipped %d rounds, want 2", i, got)
		}
		if forced.ff.Value(x) != logic.Hi {
			t.Errorf("step %d: forced node reads %s", i, forced.ff.Value(x))
		}
	}
}

// TestFastForwardNeedsSeedsInOrder: the same seeds in another order are
// another pend queue; the lane must walk.
func TestFastForwardNeedsSeedsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tc := testnet.Structured(rng)
	r := newFFRig(t, tc.Net)
	clean := r.addLane(func(*switchsim.Circuit) {}, nil)
	r.init()
	reversed := 0
	r.reseed = func(seeds []netlist.NodeID) []netlist.NodeID {
		// Dedup first, as the replay will: a reversed list with repeats
		// could dedup back into the original order.
		var uniq []netlist.NodeID
		for _, n := range seeds {
			if !slices.Contains(uniq, n) {
				uniq = append(uniq, n)
			}
		}
		if len(uniq) > 1 {
			reversed++
		}
		slices.Reverse(uniq)
		return uniq
	}
	for step := 0; step < 12; step++ {
		s0 := clean.skipped()
		n0 := reversed
		r.step(tc.RandomSetting(rng, 0))
		if reversed > n0 && clean.skipped() != s0 {
			t.Fatalf("step %d: fast-forwarded on reordered seeds", step)
		}
	}
	if reversed == 0 {
		t.Fatal("no setting produced two seeds to reorder")
	}
}

// TestFastForwardStopsAtMaxRounds: a lane limited to two rounds rides
// exactly two and meets its oscillation handling in the third, as the
// walking lane does.
func TestFastForwardStopsAtMaxRounds(t *testing.T) {
	nw, _ := stopNet()
	r := newFFRig(t, nw)
	ln := r.addLane(func(*switchsim.Circuit) {}, nil)
	r.init() // power-on needs more than two rounds
	ln.sf.MaxRounds, ln.sw.MaxRounds = 2, 2
	s0 := ln.skipped()
	r.step(toggleA(nw, logic.Hi))
	if r.gsv.Traj.NumRounds() < 4 {
		t.Fatalf("the chain settled in %d rounds", r.gsv.Traj.NumRounds())
	}
	if got := ln.skipped() - s0; got != 2 {
		t.Errorf("lane skipped %d rounds, want 2", got)
	}
}

// TestCompileDepthFollowsActiveLanes: the wave is compiled only as deep as
// some active lane can follow — not at all when every active lane is
// flagged in round 0, to the end for a clean lane, and a lane that is not
// active does not deepen it.
func TestCompileDepthFollowsActiveLanes(t *testing.T) {
	nw, _ := stopNet()
	tab := switchsim.NewTables(nw)
	good, pre := switchsim.NewCircuit(tab), switchsim.NewCircuit(tab)
	gsv := switchsim.NewSolver(tab)
	gsv.Record = true
	gsv.Init(good)
	pre.CopyStateFrom(good)
	set := toggleA(nw, logic.Hi)
	gsv.Step(good, set)
	rounds := gsv.Traj.NumRounds()

	// Lane 0 is flagged at n0 (round 0), lane 1 at n2 (round 2), lane 2
	// nowhere.
	div := make([]uint64, nw.NumNodes())
	div[nw.MustLookup("n0")] = 1 << 0
	div[nw.MustLookup("n2")] = 1 << 1
	ix := switchsim.NewReplayIndex(tab)
	for _, tc := range []struct {
		active uint64
		depth  int
	}{
		{1 << 0, 0},
		{1 << 1, 2},
		{1<<0 | 1<<1, 2},
		{1 << 2, rounds},
		{0, 0},
	} {
		ix.Build(&gsv.Traj, 1, div, nil)
		c0 := ix.Compiles()
		ix.Compile(pre, set, nil, []uint64{tc.active})
		if got := ix.WaveDepth(); got != tc.depth {
			t.Errorf("active %03b: compiled %d rounds, want %d", tc.active, got, tc.depth)
		}
		if got := ix.Compiles() - c0; (got == 1) != (tc.depth > 0) {
			t.Errorf("active %03b: %d compiles counted at depth %d", tc.active, got, tc.depth)
		}
	}
	// Build alone resets the wave.
	ix.Build(&gsv.Traj, 1, div, nil)
	if ix.WaveDepth() != 0 {
		t.Errorf("a fresh Build left %d compiled rounds", ix.WaveDepth())
	}
}
