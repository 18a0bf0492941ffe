// Fault equivalence classes: the batch-level redundancy-trimming layer
// (Options.Trim).
//
// Two faults are materialization-equivalent when they patch a circuit
// identically: node faults forcing the same node to the same value, or
// transistor faults pinning the same transistor to the same conduction
// state (stuck-open ≡ wire open, stuck-closed ≡ bridge, plus literal
// duplicates in assembled fault lists). Equivalent faults produce the
// same records, detections, oscillations, and solver work at every step
// — the entire per-fault pipeline (materialization, inertness, interest,
// diff) reads the fault only through its materialized patch and its site
// set, both functions of the patch target alone. One lane therefore
// suffices for the whole class.
//
// Equivalence is decided once, from structure, at construction: the first
// fault of each materialization key is the class representative and every
// later one is collapsed onto it before any interest is registered or any
// record written, so a member never owns lane state. It stays live — its
// detection/drop credit, oscillation flag, final records, and per-setting
// work and activity are fanned back out from the representative, so every
// BatchResult field is byte-identical to the untrimmed run. A wrong key
// therefore shows as a wrong result in every test that compares the two
// (there is no run-time re-check to absorb it; DESIGN.md "Redundancy
// trimming" says why).
//
// Determinism across shardings: classes form within a batch only, so
// different shard splits collapse different pairs — but since collapse
// changes no results (exact equivalence plus exact work crediting), every
// sharding still merges to the same bytes, which is what the difftest
// harness enforces.
package core

import (
	"fmossim/internal/fault"
	"fmossim/internal/logic"
)

// matKey is a fault's materialization identity: faults with equal keys
// patch a circuit identically and share one lane.
type matKey struct {
	node bool
	id   int32
	v    logic.Value
}

func materializationKey(f fault.Fault) matKey {
	if fv, ok := f.ForcedState(); ok {
		return matKey{node: true, id: int32(f.Node), v: fv}
	}
	pv, _ := f.PinnedState()
	return matKey{node: false, id: int32(f.Trans), v: pv}
}

// groupClasses collapses the batch's materialization-equivalent faults:
// the first fault of each key becomes the representative, later ones its
// members. Called from NewFaultBatch, before any fault registers interest,
// when trimming is on.
func (b *FaultBatch) groupClasses() {
	first := make(map[matKey]int, len(b.faults))
	for fi, fs := range b.faults {
		k := materializationKey(fs.f)
		if rfi, ok := first[k]; ok {
			rep := b.faults[rfi]
			rep.classMembers = append(rep.classMembers, fi)
			fs.repFi = rfi
			b.lanesFreed++
		} else {
			first[k] = fi
		}
	}
}

// activeWithMembers returns the activity count of the scheduled circuits
// as the untrimmed run reports it: class members share their
// representative's interest set and records, so each would have activated
// exactly when it did.
func (b *FaultBatch) activeWithMembers() int {
	n := len(b.active)
	if b.lanesFreed > 0 {
		for _, ci := range b.active {
			n += len(b.faults[ci-1].classMembers)
		}
	}
	return n
}

// resolveFault returns the faultState whose outcomes describe fault fi:
// the representative for class members, the fault itself otherwise.
func (b *FaultBatch) resolveFault(fi int) *faultState {
	fs := b.faults[fi]
	if fs.repFi >= 0 {
		return b.faults[fs.repFi]
	}
	return fs
}

// TrimStats is the batch's class-collapse census. The counts are a
// function of the fault slice alone — the same for every Options.Workers
// value — but describe how the result was reached, not the result, so
// they are never part of BatchResult.
type TrimStats struct {
	// ClassCandidates is the number of faults grouped under a
	// representative at construction, and LanesFreed the number that gave
	// up their lane: since collapse happens at construction, always the
	// same number.
	ClassCandidates int
	LanesFreed      int
	// Memo is always zero: it exists only until a benchmark PR drops
	// switchsim.vicmemo_hit_ratio and switchsim.vicmemo_saved_units,
	// which benchmarks/layers.go reads from these fields.
	Memo struct{ Hits, Misses, SavedUnits int64 }
}

// TrimStats returns the batch's trimming counters (zero when Options.Trim
// is off).
func (b *FaultBatch) TrimStats() TrimStats {
	return TrimStats{ClassCandidates: b.lanesFreed, LanesFreed: b.lanesFreed}
}
