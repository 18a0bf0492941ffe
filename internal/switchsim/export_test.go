package switchsim

import "io"

// NewStepWriterChunk is NewStepWriter handing w its buffer whenever it
// holds chunk bytes, for tests of the chunking.
func NewStepWriterChunk(w io.Writer, chunk, numNodes, numTransistors, steps int) *StepWriter {
	return newStepWriter(w, chunk, numNodes, numTransistors, steps)
}

// SetHardCap makes s stop every settle past rounds rounds, as the derived
// cap would on a settle that never ends.
func SetHardCap(s *Solver, rounds int) { s.hardCap = rounds }
