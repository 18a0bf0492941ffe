package switchsim

import (
	"io"

	"fmossim/internal/netlist"
)

// NewStepWriterChunk is NewStepWriter handing w its buffer whenever it
// holds chunk bytes, for tests of the chunking.
func NewStepWriterChunk(w io.Writer, chunk, numNodes, numTransistors, steps int) *StepWriter {
	return newStepWriter(w, chunk, numNodes, numTransistors, steps)
}

// SetHardCap makes s stop every settle past rounds rounds, as the derived
// cap would on a settle that never ends.
func SetHardCap(s *Solver, rounds int) { s.hardCap = rounds }

// Vicinities returns every vicinity's member and change lists, numbered
// across the trajectory, as the sequential reader hands them to Encode.
func Vicinities(tr *Trajectory) (members [][]netlist.NodeID, changes [][]Change) {
	vr := vicReader{tr: tr}
	_, n := tr.RoundSpan(tr.NumRounds() - 1)
	for range n {
		m, c := vr.next()
		members, changes = append(members, m), append(changes, c)
	}
	return members, changes
}

// IndexedVicinity returns the member and change lists the replay walk
// reads for vicinity vi of the trajectory ix was last built from.
func IndexedVicinity(ix *ReplayIndex, vi int) ([]netlist.NodeID, []Change) {
	return ix.members(vi), ix.changes(vi)
}

// SameTrajectory reports whether a and b are equal in content, as a
// recording compares them before it lets two steps share one.
func SameTrajectory(a, b *Trajectory) bool { return a.sameContent(b) }

// HoldsInternTable reports whether rec still holds the table through
// which Append shares trajectories.
func HoldsInternTable(rec *Recording) bool { return rec.intern != nil }
