package switchsim_test

import (
	"math/rand"
	"testing"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
	"fmossim/internal/testnet"
)

// TestSettleIdempotent: after a settle that did not oscillate, settling
// the entire network again must change nothing — the computed state is a
// fixpoint of the steady-state response.
func TestSettleIdempotent(t *testing.T) {
	for _, gen := range []struct {
		name string
		f    func(*rand.Rand) *testnet.Circuit
	}{{"structured", testnet.Structured}, {"soup", testnet.Soup}} {
		t.Run(gen.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := gen.f(rng)
				sim := switchsim.NewSimulator(c.Net)
				sim.Init()
				oscillated := false
				for i := 0; i < 12; i++ {
					res := sim.Step(c.RandomSetting(rng, 10))
					oscillated = oscillated || res.Oscillated
				}
				if oscillated {
					continue // X-resolved states need not be fixpoints of the raw response
				}
				before := sim.Circuit.Snapshot()
				res := sim.Solver.SettleAll(sim.Circuit)
				if len(res.Changed) != 0 {
					for _, n := range res.Changed {
						t.Errorf("seed %d: node %s changed %s -> %s on re-settle",
							seed, c.Net.Name(n), before[n], sim.Circuit.Value(n))
					}
					t.Fatalf("seed %d: settle not idempotent (%d changes)", seed, len(res.Changed))
				}
			}
		})
	}
}

// TestSimulationDeterministic: the same circuit and stimulus produce
// bit-identical state trajectories.
func TestSimulationDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := testnet.Soup(rng)
		seq := c.RandomSequence(rng, 15, 15)

		run := func() [][]logic.Value {
			sim := switchsim.NewSimulator(c.Net)
			sim.Init()
			var snaps [][]logic.Value
			for i := range seq.Patterns {
				sim.RunPattern(&seq.Patterns[i])
				snaps = append(snaps, sim.Circuit.Snapshot())
			}
			return snaps
		}
		a, b := run(), run()
		for i := range a {
			for n := range a[i] {
				if a[i][n] != b[i][n] {
					t.Fatalf("seed %d: nondeterminism at pattern %d node %s: %s vs %s",
						seed, i, c.Net.Name(int32ToNodeID(n)), a[i][n], b[i][n])
				}
			}
		}
	}
}

func int32ToNodeID(n int) netlist.NodeID { return netlist.NodeID(n) }

// TestMonotonicity: one steady-state response, computed from a common
// initial charge state, must be monotone in the information ordering —
// weakening some inputs to X can only make the resulting node states less
// definite, never flip them to a different definite value. This is the
// soundness property that makes X a safe abstraction of unknown voltages.
//
// Note the property is deliberately about a *single* response from a
// shared state: across multiple settings, isolated charge nodes capture
// transient (race) states, so whole trajectories of different stimuli are
// not pointwise comparable — a faithful artifact of event-driven
// unit-delay simulation that MOSSIM-class simulators share.
func TestMonotonicity(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := testnet.Structured(rng)

		sim := switchsim.NewSimulator(c.Net)
		sim.Init()
		shadow := switchsim.NewCircuit(sim.Tab)
		shadowSolver := switchsim.NewSolver(sim.Tab)

		for i := 0; i < 8; i++ {
			base := c.RandomSetting(rng, 0)
			weak := make(switchsim.Setting, len(base))
			copy(weak, base)
			for j := range weak {
				if rng.Intn(100) < 25 {
					weak[j].Value = logic.X
				}
			}

			// Fork the current state, then apply base to one copy and the
			// weakened setting to the other.
			shadow.CopyStateFrom(sim.Circuit)
			r1 := sim.Step(base)
			r2 := shadowSolver.Step(shadow, weak)
			if !r1.Oscillated && !r2.Oscillated {
				a, b := sim.Circuit.Snapshot(), shadow.Snapshot()
				for n := range a {
					if !logic.Covers(b[n], a[n]) {
						t.Fatalf("seed %d step %d: node %s: weakened response %s does not cover %s",
							seed, i, c.Net.Name(int32ToNodeID(n)), b[n], a[n])
					}
				}
			}
		}
	}
}

// TestSoupRobustness: fully random transistor soups must never panic,
// must terminate, and must produce only valid ternary values.
func TestSoupRobustness(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := testnet.Soup(rng)
		sim := switchsim.NewSimulator(c.Net)
		sim.Init()
		for i := 0; i < 10; i++ {
			sim.Step(c.RandomSetting(rng, 20))
		}
		for n, v := range sim.Circuit.Snapshot() {
			if !v.Valid() {
				t.Fatalf("seed %d: node %s has invalid value %d", seed, c.Net.Name(int32ToNodeID(n)), v)
			}
		}
	}
}

// TestSeedOrderConfluence: settling from the same perturbation set in a
// different seed order must reach the same fixpoint for structured
// (race-free) circuits.
func TestSeedOrderConfluence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := testnet.Structured(rng)
		setting := c.RandomSetting(rng, 0)

		run := func(reverse bool) []logic.Value {
			sim := switchsim.NewSimulator(c.Net)
			sim.Init()
			seeds := sim.Solver.ApplySetting(sim.Circuit, setting)
			if reverse {
				for i, j := 0, len(seeds)-1; i < j; i, j = i+1, j-1 {
					seeds[i], seeds[j] = seeds[j], seeds[i]
				}
			}
			sim.Solver.Settle(sim.Circuit, seeds)
			return sim.Circuit.Snapshot()
		}
		a, b := run(false), run(true)
		for n := range a {
			if a[n] != b[n] {
				t.Fatalf("seed %d: node %s differs under seed reordering: %s vs %s",
					seed, c.Net.Name(int32ToNodeID(n)), a[n], b[n])
			}
		}
	}
}
