// Fault equivalence classes: the batch-level redundancy-trimming layer.
// Every batch is trimmed; a batch of one fault has nothing to collapse,
// so one-fault batches are the untrimmed reference the tests compare
// against.
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
// therefore shows as a wrong result in every test that compares a batch
// with its one-fault batches (there is no run-time re-check to absorb
// it; DESIGN.md "Redundancy trimming" says why).
//
// Determinism across shardings: classes form within a batch only, so
// different shard splits collapse different pairs — but since collapse
// changes no results (exact equivalence plus exact work crediting), every
// sharding still merges to the same bytes, which is what the difftest
// harness enforces.
package core

import (
	"cmp"
	"slices"

	"fmossim/internal/fault"
)

// materializationKey is a fault's materialization identity: faults with
// equal keys patch a circuit identically and share one lane. It packs
// the patch target's id, whether it is a node or a transistor, and the
// forced or pinned value.
func materializationKey(f fault.Fault) uint64 {
	if fv, ok := f.ForcedState(); ok {
		return uint64(f.Node)<<9 | 1<<8 | uint64(fv)
	}
	pv, _ := f.PinnedState()
	return uint64(f.Trans)<<9 | uint64(pv)
}

// groupClasses collapses the batch's materialization-equivalent faults:
// the first fault of each key becomes the representative, later ones its
// members. A permutation of the batch (4 bytes a fault, no map) sorted by
// key, then fault index, lays each class out as one run, representative
// first. Called from Reset, before any fault registers interest.
func (b *FaultBatch) groupClasses() {
	order := b.classOrder[:0]
	for i := range b.faults {
		order = append(order, int32(i))
	}
	b.classOrder = order
	key := func(fi int32) uint64 { return materializationKey(b.faults[fi].f) }
	slices.SortFunc(order, func(i, j int32) int {
		return cmp.Or(cmp.Compare(key(i), key(j)), cmp.Compare(i, j))
	})
	rfi := -1
	for k, fi := range order {
		if k == 0 || key(fi) != key(order[k-1]) {
			rfi = int(fi)
			continue
		}
		rep := b.faults[rfi]
		rep.classMembers = append(rep.classMembers, int(fi))
		b.faults[fi].repFi = rfi
		b.lanesFreed++
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

// TrimStats is the batch's class-collapse census. Every batch collapses
// its classes at construction, so every batch has one. The counts are a
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

// TrimStats returns the batch's trimming counters.
func (b *FaultBatch) TrimStats() TrimStats {
	return TrimStats{ClassCandidates: b.lanesFreed, LanesFreed: b.lanesFreed}
}
