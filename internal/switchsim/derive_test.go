package switchsim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
	"fmossim/internal/testnet"
)

// derived is what a recorded step's consumers rebuild from its trajectory:
// the members with repeats removed, in first-appearance order, and the
// changed nodes in first-write order with each node's last written value.
type derived struct {
	explored []netlist.NodeID
	changed  []netlist.NodeID
	last     map[netlist.NodeID]logic.Value
}

func derive(tr *switchsim.Trajectory) derived {
	d := derived{last: map[netlist.NodeID]logic.Value{}}
	seen := map[netlist.NodeID]bool{}
	members, changes := tr.Lists()
	for _, n := range members {
		if !seen[n] {
			seen[n] = true
			d.explored = append(d.explored, n)
		}
	}
	for _, ch := range changes {
		if _, ok := d.last[ch.Node]; !ok {
			d.changed = append(d.changed, ch.Node)
		}
		d.last[ch.Node] = ch.Value
	}
	return d
}

// checkDerives compares the recording solver's last settle with what its
// trajectory rebuilds: Explored exactly, Changed exactly, and each changed
// node's last trajectory value with its post-step value in c.
func checkDerives(t *testing.T, step string, sv *switchsim.Solver, c *switchsim.Circuit, res switchsim.SettleResult) {
	t.Helper()
	d := derive(&sv.Traj)
	if !slices.Equal(d.explored, res.Explored) {
		t.Fatalf("%s: the trajectory's members rebuild Explored as %v, the settle's is %v", step, d.explored, res.Explored)
	}
	if !slices.Equal(d.changed, res.Changed) {
		t.Fatalf("%s: the trajectory's changes rebuild Changed as %v, the settle's is %v", step, d.changed, res.Changed)
	}
	for _, n := range d.changed {
		if v := c.Value(n); d.last[n] != v {
			t.Fatalf("%s: node %d's last trajectory change is %s, its post-step value %s", step, n, d.last[n], v)
		}
	}
}

// capWrites counts the trajectory's writes in vicinities with no members:
// the hard cap's X writes, the only ones no solve made.
func capWrites(tr *switchsim.Trajectory) int {
	n := 0
	members, changes := switchsim.Vicinities(tr)
	for vi := range members {
		if len(members[vi]) == 0 {
			n += len(changes[vi])
		}
	}
	return n
}

// runDerives settles nw through seq with a recording solver — the
// initialization, then every setting — and checks each step's trajectory
// against its settle. It returns how many steps oscillated and how many
// hard-cap writes the trajectories hold.
func runDerives(t *testing.T, name string, nw *netlist.Network, seq *switchsim.Sequence, maxRounds, hardCap int) (osc, capped int) {
	t.Helper()
	sim := switchsim.NewSimulator(nw)
	sv := sim.Solver
	sv.Record, sv.MaxRounds = true, maxRounds
	if hardCap > 0 {
		switchsim.SetHardCap(sv, hardCap)
	}
	note := func(step string, res switchsim.SettleResult) {
		checkDerives(t, step, sv, sim.Circuit, res)
		if res.Oscillated {
			osc++
		}
		capped += capWrites(&sv.Traj)
	}
	note(name+" init", sim.Init())
	for pi := range seq.Patterns {
		for si, set := range seq.Patterns[pi].Settings {
			note(fmt.Sprintf("%s pattern %d setting %d", name, pi, si), sim.Step(set))
		}
	}
	return osc, capped
}

// TestTrajectoryDerivesStep pins the rebuild every recorded step relies
// on: a step stores only its trajectory, and its consumers read the
// settle's explored and changed sets off it. For every step of RAM64
// sequences 1 and 2, of the property-test soups, and of X-mode settles
// forced by a low MaxRounds and by a low hard cap, the trajectory's
// members with repeats removed are SettleResult.Explored, and its changes
// with repeats removed, the last value winning, are SettleResult.Changed
// with post-step values.
func TestTrajectoryDerivesStep(t *testing.T) {
	m := ram.RAM64()
	for _, seq := range []*switchsim.Sequence{march.Sequence1(m), march.Sequence2(m)} {
		if osc, _ := runDerives(t, "RAM64 "+seq.Name, m.Net, seq, 0, 0); osc != 0 {
			t.Errorf("RAM64 %s: %d steps oscillated", seq.Name, osc)
		}
	}

	for _, gen := range []struct {
		name string
		f    func(*rand.Rand) *testnet.Circuit
	}{{"structured", testnet.Structured}, {"soup", testnet.Soup}} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := gen.f(rng)
			runDerives(t, fmt.Sprintf("%s %d", gen.name, seed), c.Net, c.RandomSequence(rng, 12, 10), 0, 0)
		}
	}

	// X mode: past MaxRounds each write is joined with the old value. A low
	// hard cap then stops settles with nodes still pending, whose X writes
	// the trajectory keeps as vicinities with no members.
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:16]
	if osc, _ := runDerives(t, "RAM64 MaxRounds 2", m.Net, seq, 2, 0); osc == 0 {
		t.Error("MaxRounds 2: no step went to X mode")
	}
	if osc, capped := runDerives(t, "RAM64 hard cap 3", m.Net, seq, 1, 3); osc == 0 || capped == 0 {
		t.Errorf("hard cap 3: %d steps oscillated and the cap wrote %d values, want both above 0", osc, capped)
	}
}
