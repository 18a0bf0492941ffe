package switchsim_test

import (
	"bytes"
	"io"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

func fingerprint(t *testing.T, rec *switchsim.Recording) string {
	t.Helper()
	fp, err := rec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFingerprintIgnoresWallClock pins the fingerprint contract: content
// is the trajectory, never timing. Two captures of one circuit and
// sequence (whose per-step GoodNS differ, being measured) share a
// fingerprint, so does any rewrite of the timing, and the smallest change
// to the trajectory does not.
func TestFingerprintIgnoresWallClock(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	a := core.Record(m.Net, seq, core.Options{})
	b := core.Record(m.Net, seq, core.Options{})
	want := fingerprint(t, a)
	if got := fingerprint(t, b); got != want {
		t.Fatalf("two captures of RAM64 sequence 1 fingerprint differently:\n%s\n%s", want, got)
	}

	for i := range b.Steps {
		b.Steps[i].GoodNS = b.Steps[i].GoodNS*7 + int64(i) + 1
	}
	if got := fingerprint(t, b); got != want {
		t.Fatal("rewriting every GoodNS changed the fingerprint")
	}

	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if got := switchsim.FingerprintBytes(buf.Bytes()); got != want {
		t.Fatal("FingerprintBytes of the encoding differs from Fingerprint")
	}
	dec, err := switchsim.DecodeRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec.Steps {
		if dec.Steps[i].GoodNS != 0 {
			t.Fatalf("decoded step %d reports GoodNS %d, want 0", i, dec.Steps[i].GoodNS)
		}
	}
	if got := fingerprint(t, dec); got != want {
		t.Fatal("a decoded recording fingerprints differently from its source")
	}

	for i := range b.Steps {
		if ch := b.Steps[i].Changed; len(ch) > 0 {
			ch[0].Value = (ch[0].Value + 1) % (logic.X + 1)
			break
		}
	}
	if got := fingerprint(t, b); got == want {
		t.Fatal("changing one Changed value left the fingerprint as it was")
	}
}

// TestRecordingCodecAllocs guards the codec's allocation behaviour:
// encoding costs a constant number of allocations however long the
// recording, decoding a small multiple of its step count (the slabs of
// each owned step), never one per list or per varint.
func TestRecordingCodecAllocs(t *testing.T) {
	m := ram.RAM64()
	full := march.Sequence1(m)
	short := *full
	short.Patterns = full.Patterns[:16]

	var counts []float64
	for _, seq := range []*switchsim.Sequence{&short, full} {
		rec := core.Record(m.Net, seq, core.Options{SnapshotEvery: 64})
		var buf bytes.Buffer
		if err := rec.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()

		encAllocs := testing.AllocsPerRun(5, func() {
			if err := rec.Encode(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if encAllocs > 4 {
			t.Errorf("%d steps: Encode made %.0f allocations, want at most 4", len(rec.Steps), encAllocs)
		}
		counts = append(counts, encAllocs)

		decAllocs := testing.AllocsPerRun(5, func() {
			if _, err := switchsim.DecodeRecordingBytes(enc); err != nil {
				t.Fatal(err)
			}
		})
		// Per step: the three slabs, the trajectory and its round table,
		// now and then a state frame; plus the decoder's own scratch.
		if limit := float64(6*len(rec.Steps) + 64); decAllocs > limit {
			t.Errorf("%d steps: DecodeRecordingBytes made %.0f allocations, want at most %.0f",
				len(rec.Steps), decAllocs, limit)
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("Encode allocations grow with the recording: %.0f for the short one, %.0f for the long", counts[0], counts[1])
	}
}
