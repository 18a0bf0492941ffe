package switchsim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/march"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// writerChunks are the buffer sizes at which the StepWriters under test
// hand their bytes on: one byte (a write per step), a size no step
// boundary lines up with, a page, and the default.
var writerChunks = []int{1, 7, 4096, 32 << 10}

// streamed encodes the steps feed hands it through a StepWriter that
// passes its buffer on every chunk bytes, and returns the bytes and their
// fingerprint.
func streamed(t *testing.T, chunk int, rec *switchsim.Recording, feed func(sink func(*switchsim.StepTrace))) ([]byte, string) {
	t.Helper()
	var out bytes.Buffer
	h := sha256.New()
	sw := switchsim.NewStepWriterChunk(io.MultiWriter(&out, h), chunk, rec.NumNodes, rec.NumTransistors, len(rec.Steps))
	feed(sw.Append)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), hex.EncodeToString(h.Sum(nil))
}

// TestStepWriterMatchesEncode: a capture streamed step by step through a
// StepWriter is byte for byte the encoding of the recording core.Record
// builds from the same capture, and hashes to its fingerprint, whatever
// the chunk size.
func TestStepWriterMatchesEncode(t *testing.T) {
	m := ram.RAM64()
	tab := switchsim.NewTables(m.Net)
	for _, seq := range []*switchsim.Sequence{march.Sequence1(m), march.Sequence2(m)} {
		rec := core.Record(m.Net, seq, core.Options{})
		want := encode(t, rec)
		wantFP := fingerprint(t, rec)
		for _, chunk := range writerChunks {
			got, fp := streamed(t, chunk, rec, func(sink func(*switchsim.StepTrace)) {
				core.Capture(tab, seq, core.Options{}, sink)
			})
			if !bytes.Equal(got, want) {
				t.Errorf("%s, chunk %d: the streamed capture is %d bytes, not the %d of its recording's encoding",
					seq.Name, chunk, len(got), len(want))
			}
			if fp != wantFP {
				t.Errorf("%s, chunk %d: streamed fingerprint %s, recording's %s", seq.Name, chunk, fp, wantFP)
			}
		}
	}
}

// TestStepWriterKeepsOscillatedTrajectory: a step marked oscillated is
// written with its trajectory, as Recording.Append keeps it — the
// trajectory is the step's only record of what the settle explored and
// changed — and decodes with the trajectory it was written with.
func TestStepWriterKeepsOscillatedTrajectory(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:8]
	src := core.Record(m.Net, seq, core.Options{})

	steps := make([]switchsim.StepTrace, len(src.Steps))
	rec := switchsim.NewRecording(m.Net)
	kept := 0
	for i := range src.Steps {
		steps[i] = src.Steps[i]
		if i%2 == 1 && steps[i].Traj != nil {
			steps[i].Oscillated = true
			kept++
		}
		rec.Append(&steps[i])
	}
	if kept == 0 {
		t.Fatal("no step carried a trajectory to keep")
	}
	want := encode(t, rec)
	for _, chunk := range writerChunks {
		got, _ := streamed(t, chunk, rec, func(sink func(*switchsim.StepTrace)) {
			for i := range steps {
				sink(&steps[i])
			}
		})
		if !bytes.Equal(got, want) {
			t.Errorf("chunk %d: %d oscillated steps with trajectories stream to %d bytes, Append then Encode to %d",
				chunk, kept, len(got), len(want))
		}
	}
	dec, err := switchsim.DecodeRecordingBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	for i := range steps {
		if !steps[i].Oscillated {
			continue
		}
		if rec.Steps[i].Traj == nil || dec.Steps[i].Traj == nil {
			t.Fatalf("step %d: the oscillated step lost its trajectory (appended %v, decoded %v)",
				i, rec.Steps[i].Traj != nil, dec.Steps[i].Traj != nil)
		}
		if !reflect.DeepEqual(dec.Steps[i].Traj, steps[i].Traj) {
			t.Fatalf("step %d: the oscillated step decodes to another trajectory", i)
		}
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestStepWriterErrors: Close reports a step count other than the
// header's, and the first failed write.
func TestStepWriterErrors(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:2]
	rec := core.Record(m.Net, seq, core.Options{})
	nodes, trans := rec.NumNodes, rec.NumTransistors

	for _, c := range []struct {
		name     string
		declared int
		w        io.Writer
		want     string
	}{
		{"too few", len(rec.Steps) + 1, io.Discard, "never written"},
		{"too many", len(rec.Steps) - 1, io.Discard, "more steps"},
		{"failed write", len(rec.Steps), errWriter{}, "disk full"},
	} {
		sw := switchsim.NewStepWriter(c.w, nodes, trans, c.declared)
		for i := range rec.Steps {
			sw.Append(&rec.Steps[i])
		}
		if err := sw.Close(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Close = %v, want an error saying %q", c.name, err, c.want)
		}
	}
}
