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
// Collapse is defensive rather than assumed: candidate classes are
// grouped by materialization key at construction, then each member's
// divergence signature — an incremental XOR-fold of its record store,
// maintained by setRecord/clearRecord — is compared against its
// representative's through a probation window of settings. A member
// whose signature, detection state, or oscillation flag ever deviates
// (impossible unless the equivalence argument is wrong, i.e. a bug) is
// quietly kept independent. Surviving members surrender their lanes at
// the end of probation: records and interest registrations are purged
// exactly as fault dropping does, but the member stays live — its
// detection/drop credit, oscillation flag, final records, and per-setting
// work are fanned back out from the representative, so every BatchResult
// field is byte-identical to the untrimmed run.
//
// Determinism across shardings: classes form within a batch only, so
// different shard splits collapse different pairs — but since collapse
// changes no results (exact equivalence plus exact work crediting), every
// sharding still merges to the same bytes, which is what the difftest
// harness enforces.
package core

import (
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// DefaultTrimProbation is the probation window (in settings) used when
// Options.TrimProbation is zero.
const DefaultTrimProbation = 8

// sigHash folds one divergence record ⟨n, v⟩ into a class signature term
// (splitmix64 of the packed pair; XOR-combined, so incremental insert,
// update, and delete are all O(1)).
func sigHash(n netlist.NodeID, v logic.Value) uint64 {
	z := (uint64(n)<<2 | uint64(v)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// matKey is a fault's materialization identity: faults with equal keys
// patch a circuit identically and are candidates for class collapse.
type matKey struct {
	node bool
	id   int32
	v    logic.Value
}

func materializationKey(f faultKeySource) matKey {
	if fv, ok := f.ForcedState(); ok {
		return matKey{node: true, id: int32(f.nodeID()), v: fv}
	}
	pv, _ := f.PinnedState()
	return matKey{node: false, id: int32(f.transID()), v: pv}
}

// groupClasses scans the batch's faults for materialization-equivalent
// groups: the first fault of each key becomes the representative, later
// ones its candidate members. Called from newBatch when trimming is on.
func (b *FaultBatch) groupClasses() {
	first := make(map[matKey]int, len(b.faults))
	for fi, fs := range b.faults {
		k := materializationKey(faultKeySource{fs})
		if rfi, ok := first[k]; ok {
			rep := b.faults[rfi]
			if len(rep.classMembers) == 0 {
				b.classReps = append(b.classReps, rfi)
			}
			rep.classMembers = append(rep.classMembers, fi)
			fs.repFi = rfi
			b.classPending = true
		} else {
			first[k] = fi
		}
	}
}

// faultKeySource adapts a faultState for key extraction without exporting
// fault internals.
type faultKeySource struct{ fs *faultState }

func (s faultKeySource) ForcedState() (logic.Value, bool) { return s.fs.f.ForcedState() }
func (s faultKeySource) PinnedState() (logic.Value, bool) { return s.fs.f.PinnedState() }
func (s faultKeySource) nodeID() netlist.NodeID           { return s.fs.f.Node }
func (s faultKeySource) transID() netlist.TransID         { return s.fs.f.Trans }

// verifyClassSigs runs the per-setting probation check: any candidate
// member whose divergence signature or detection/oscillation state
// deviates from its representative's loses its candidacy.
func (b *FaultBatch) verifyClassSigs() {
	for _, rfi := range b.classReps {
		rep := b.faults[rfi]
		for _, mfi := range rep.classMembers {
			m := b.faults[mfi]
			if m.classCancelled {
				continue
			}
			if m.sig != rep.sig || m.detected != rep.detected ||
				m.dropped != rep.dropped || m.oscillated != rep.oscillated {
				m.classCancelled = true
			}
		}
	}
}

// collapseClasses retires the lanes of every surviving candidate member
// at the end of probation: records and interest registrations are purged
// (the dropCircuit walk, minus the dropped flag — the member stays live),
// and from here on the representative's outcomes are fanned back out at
// observation and assembly time.
func (b *FaultBatch) collapseClasses() {
	b.classPending = false
	for _, rfi := range b.classReps {
		rep := b.faults[rfi]
		kept := rep.classMembers[:0]
		for _, mfi := range rep.classMembers {
			m := b.faults[mfi]
			if m.classCancelled || m.dropped || rep.dropped || m.sig != rep.sig ||
				m.detected != rep.detected || m.oscillated != rep.oscillated {
				continue
			}
			ci := CircuitID(mfi + 1)
			word, bit := b.lane(ci)
			for _, n := range m.recs.nodes {
				cell := &b.recRows[b.recRowIdx[n]][word]
				cell.member &^= 1 << bit
				cell.pl.Clear(bit)
				b.decRecordInterest(n, ci)
			}
			m.recs.release()
			for _, n := range m.sites {
				b.decInterest(n, ci)
			}
			m.collapsed = true
			b.anyCollapsed = true
			b.lanesFreed++
			kept = append(kept, mfi)
		}
		rep.classMembers = kept
	}
}

// liveCollapsedMembers counts the collapsed, undropped members riding on
// representative fs: the fan-out multiplier for work and activity credit.
func (b *FaultBatch) liveCollapsedMembers(fs *faultState) int {
	n := 0
	for _, mfi := range fs.classMembers {
		if m := b.faults[mfi]; m.collapsed && !m.dropped {
			n++
		}
	}
	return n
}

// dropCollapsedMember drops a collapsed member alongside its
// representative: the lane was already surrendered at collapse, so only
// the flags and counters move.
func (b *FaultBatch) dropCollapsedMember(m *faultState) {
	m.dropped = true
	b.live--
	b.retired++
}

// resolveFault returns the faultState whose outcomes describe fault fi:
// the representative for collapsed members, the fault itself otherwise.
func (b *FaultBatch) resolveFault(fi int) *faultState {
	fs := b.faults[fi]
	if fs.collapsed {
		return b.faults[fs.repFi]
	}
	return fs
}

// TrimStats is the batch's class-collapse census. The counts are a
// function of the fault slice and the recording alone — the same for
// every Options.Workers value — but describe how the result was reached,
// not the result, so they are never part of BatchResult.
type TrimStats struct {
	// ClassCandidates is the number of faults grouped under a
	// representative at construction; LanesFreed of them collapsed after
	// probation.
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
	ts := TrimStats{LanesFreed: b.lanesFreed}
	for _, rfi := range b.classReps {
		ts.ClassCandidates += len(b.faults[rfi].classMembers)
	}
	if b.classPending {
		// Pre-collapse, classMembers still lists cancelled candidates.
		ts.ClassCandidates = 0
		for _, rfi := range b.classReps {
			for _, mfi := range b.faults[rfi].classMembers {
				if !b.faults[mfi].classCancelled {
					ts.ClassCandidates++
				}
			}
		}
	}
	return ts
}
