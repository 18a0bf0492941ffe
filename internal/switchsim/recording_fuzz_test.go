package switchsim_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/march"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// FuzzDecodeRecording throws arbitrary bytes at the recording decoder.
// The decoder's contract: malformed input — bad magic, truncated
// varints, out-of-range node ids, a step flagged as carrying a state
// frame — returns an error; it never panics. Anything that does decode
// must re-encode and re-decode to the identical recording (decode is a
// left inverse of encode on the decoder's image).
//
// The seed corpus is real: the paper's RAM64 circuit recorded through
// test sequence 1, the same stream with the first step's frame bit set
// (which must be refused), plus truncations and a corrupted-magic
// variant of both, so the fuzzer starts inside the format rather than
// rediscovering the magic string; then the stream under the retired
// FMOSREC2 magic (refused by name) and the bare current magic.
func FuzzDecodeRecording(f *testing.F) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:8] // keep the corpus entries small
	plain := encode(f, core.Record(m.Net, seq, core.Options{}))
	// The first step's flag byte follows the magic and the three header
	// varints; bit 3 said a state frame follows the step.
	flags := len("FMOSREC3")
	for i := 0; i < 3; i++ {
		_, n := binary.Uvarint(plain[flags:])
		flags += n
	}
	framed := append([]byte(nil), plain...)
	framed[flags] |= 1 << 3
	if _, err := switchsim.DecodeRecordingBytes(framed); err == nil || !strings.Contains(err.Error(), "state frames") {
		f.Fatalf("frame bit set: err = %v, want the state-frames refusal", err)
	}
	for _, enc := range [][]byte{framed, plain} {
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
		mut := append([]byte(nil), enc...)
		copy(mut, "FMOSREC9")
		f.Add(mut)
	}
	retired := append([]byte(nil), plain...)
	copy(retired, "FMOSREC2")
	if _, err := switchsim.DecodeRecordingBytes(retired); err == nil || !strings.Contains(err.Error(), "FMOSREC2") {
		f.Fatalf("retired magic: err = %v, want FMOSREC2 refused by name", err)
	}
	f.Add(retired)
	f.Add([]byte{})
	f.Add([]byte("FMOSREC3"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := switchsim.DecodeRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := rec.Encode(&buf); err != nil {
			t.Fatalf("re-encoding a decoded recording: %v", err)
		}
		again, err := switchsim.DecodeRecording(&buf)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded recording: %v", err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatal("decode ∘ encode is not idempotent on a decoded recording")
		}
	})
}
