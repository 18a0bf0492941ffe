// Sequence/pattern/setting types and work counters. Package
// documentation lives in doc.go.
package switchsim

import (
	"fmt"
	"sort"
	"strings"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// Assignment sets one input node to a value.
type Assignment struct {
	Node  netlist.NodeID
	Value logic.Value
}

// Setting is one simultaneous assignment of input values, after which the
// network settles to a steady state. The paper's "patterns" each expand to
// a sequence of six settings that cycle the clocks.
type Setting []Assignment

// Pattern is a named group of settings: one test-pattern application,
// typically one full clock cycle.
type Pattern struct {
	Name     string
	Settings []Setting
	// Observe marks the setting indexes after which outputs should be
	// compared for fault detection. Empty means observe after every
	// setting.
	Observe []int
}

// ObserveAt reports whether outputs should be observed after setting i.
func (p *Pattern) ObserveAt(i int) bool {
	if len(p.Observe) == 0 {
		return true
	}
	for _, o := range p.Observe {
		if o == i {
			return true
		}
	}
	return false
}

// Sequence is an ordered test sequence of patterns.
type Sequence struct {
	Name     string
	Patterns []Pattern
}

// NumSettings returns the total number of input settings in the sequence.
func (s *Sequence) NumSettings() int {
	n := 0
	for i := range s.Patterns {
		n += len(s.Patterns[i].Settings)
	}
	return n
}

// Vector is a convenience constructor turning name/value pairs into a
// Setting using the network's name table.
func Vector(nw *netlist.Network, pairs map[string]logic.Value) (Setting, error) {
	names := make([]string, 0, len(pairs))
	for name := range pairs {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic order
	set := make(Setting, 0, len(pairs))
	for _, name := range names {
		id := nw.Lookup(name)
		if id == netlist.NoNode {
			return nil, fmt.Errorf("switchsim: no node named %q", name)
		}
		if nw.Node(id).Kind != netlist.Input {
			return nil, fmt.Errorf("switchsim: node %q is not an input", name)
		}
		set = append(set, Assignment{Node: id, Value: pairs[name]})
	}
	return set, nil
}

// MustVector is Vector, panicking on error; for tests and generators.
func MustVector(nw *netlist.Network, pairs map[string]logic.Value) Setting {
	s, err := Vector(nw, pairs)
	if err != nil {
		panic(err)
	}
	return s
}

// String renders a setting like "{A=1 B=0}". Node ids are shown when no
// network is available; use StringWith for names.
func (s Setting) String() string {
	parts := make([]string, len(s))
	for i, a := range s {
		parts[i] = fmt.Sprintf("n%d=%s", a.Node, a.Value)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// StringWith renders a setting with node names from the network.
func (s Setting) StringWith(nw *netlist.Network) string {
	parts := make([]string, len(s))
	for i, a := range s {
		parts[i] = fmt.Sprintf("%s=%s", nw.Name(a.Node), a.Value)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Work counts the computational effort spent by a solver: the quantities
// that the paper's CPU-seconds figures are proxies for. Deterministic
// across runs, unlike wall-clock time, so benches report both.
type Work struct {
	// Settles is the number of steady-state computations (input settings
	// or re-settles of faulty circuits).
	Settles int64
	// Rounds is the number of unit-delay rounds across all settles.
	Rounds int64
	// Vicinities is the number of vicinity solves.
	Vicinities int64
	// NodesSolved is the total vicinity size summed over all solves: the
	// dominant cost term.
	NodesSolved int64
	// RelaxSteps counts per-node relaxation recomputations.
	RelaxSteps int64
	// AdoptedChanges counts good-trajectory changes adopted by faulty
	// replays instead of being re-solved (see Solver.SettleReplayIndexed).
	AdoptedChanges int64
	// AdoptedVics counts trajectory vicinities adopted whole by faulty
	// replays. A pure occupancy statistic: it is excluded from Units (the
	// adoption cost is already in AdoptedChanges) and exists so batch
	// stats can report the adopted/solved split per setting.
	AdoptedVics int64
}

// Add accumulates w2 into w.
func (w *Work) Add(w2 Work) {
	w.Settles += w2.Settles
	w.Rounds += w2.Rounds
	w.Vicinities += w2.Vicinities
	w.NodesSolved += w2.NodesSolved
	w.RelaxSteps += w2.RelaxSteps
	w.AdoptedChanges += w2.AdoptedChanges
	w.AdoptedVics += w2.AdoptedVics
}

// Sub returns w - w2.
func (w Work) Sub(w2 Work) Work {
	return Work{
		Settles:        w.Settles - w2.Settles,
		Rounds:         w.Rounds - w2.Rounds,
		Vicinities:     w.Vicinities - w2.Vicinities,
		NodesSolved:    w.NodesSolved - w2.NodesSolved,
		RelaxSteps:     w.RelaxSteps - w2.RelaxSteps,
		AdoptedChanges: w.AdoptedChanges - w2.AdoptedChanges,
		AdoptedVics:    w.AdoptedVics - w2.AdoptedVics,
	}
}

// Scaled returns the counters multiplied by k: the work k identical
// circuits would accumulate. Used by the trimming layer to credit
// collapsed equivalence-class members with their representative's work.
func (w Work) Scaled(k int64) Work {
	return Work{
		Settles:        w.Settles * k,
		Rounds:         w.Rounds * k,
		Vicinities:     w.Vicinities * k,
		NodesSolved:    w.NodesSolved * k,
		RelaxSteps:     w.RelaxSteps * k,
		AdoptedChanges: w.AdoptedChanges * k,
		AdoptedVics:    w.AdoptedVics * k,
	}
}

// Units returns the scalar work metric used as the deterministic stand-in
// for CPU time: relaxation steps dominate, with a per-vicinity and
// per-settle overhead term, mirroring the real cost structure. Adopted
// changes are cheap list operations and weighted accordingly.
func (w Work) Units() int64 {
	return w.RelaxSteps + 4*w.NodesSolved + 16*w.Vicinities + 32*w.Settles + w.AdoptedChanges
}

// ReplayStats describes how indexed replays reached their results: how
// many lanes ran, how many of them skipped leading rounds on the compiled
// good wave and what the skipping saved, and how many of the adoptions
// that were walked changed nothing. It is diagnostic only — never part of
// a result, a codec or a checkpoint — and, unlike Work, is free to change
// when the replay is reorganised.
type ReplayStats struct {
	// Builds counts replay indexes built (one per setting that activated
	// a lane); Compiles the good waves compiled for them — fewer, since a
	// setting whose active lanes are all flagged in round 0 compiles
	// nothing.
	Builds, Compiles int64
	// Lanes counts indexed replays; FastForwarded those that skipped at
	// least one round.
	Lanes, FastForwarded int64
	// RoundsSkipped and AdoptionsSkipped total the rounds and the adopted
	// vicinities the fast-forwarded lanes did not walk.
	RoundsSkipped, AdoptionsSkipped int64
	// ZeroChangeAdoptions counts walked adoptions of a vicinity that
	// changed no node.
	ZeroChangeAdoptions int64
}

// Add accumulates r2 into r.
func (r *ReplayStats) Add(r2 ReplayStats) {
	r.Builds += r2.Builds
	r.Compiles += r2.Compiles
	r.Lanes += r2.Lanes
	r.FastForwarded += r2.FastForwarded
	r.RoundsSkipped += r2.RoundsSkipped
	r.AdoptionsSkipped += r2.AdoptionsSkipped
	r.ZeroChangeAdoptions += r2.ZeroChangeAdoptions
}
