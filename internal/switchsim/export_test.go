package switchsim

import "io"

// NewStepWriterChunk is NewStepWriter handing w its buffer whenever it
// holds chunk bytes, for tests of the chunking.
func NewStepWriterChunk(w io.Writer, chunk, numNodes, numTransistors, steps int) *StepWriter {
	return newStepWriter(w, chunk, numNodes, numTransistors, steps)
}
