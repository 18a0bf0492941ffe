package switchsim_test

import (
	"bytes"
	"io"
	"runtime"
	"slices"
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

// encode returns rec's encoding.
func encode(t testing.TB, rec *switchsim.Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFingerprintIgnoresWallClock pins the fingerprint contract: content
// is the trajectory, never timing. Two captures of one circuit and
// sequence share a fingerprint, so does a decoded copy, and the smallest
// change to the trajectory does not.
func TestFingerprintIgnoresWallClock(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	a := core.Record(m.Net, seq, core.Options{})
	b := core.Record(m.Net, seq, core.Options{})
	want := fingerprint(t, a)
	if got := fingerprint(t, b); got != want {
		t.Fatalf("two captures of RAM64 sequence 1 fingerprint differently:\n%s\n%s", want, got)
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
	if got := fingerprint(t, dec); got != want {
		t.Fatal("a decoded recording fingerprints differently from its source")
	}

	for i := range b.Steps {
		if _, ch := b.Steps[i].Traj.Lists(); len(ch) > 0 {
			ch[0].Value = (ch[0].Value + 1) % (logic.X + 1)
			break
		}
	}
	if got := fingerprint(t, b); got == want {
		t.Fatal("changing one trajectory change left the fingerprint as it was")
	}
}

// TestFingerprintStable pins the fingerprints of the RAM64 sequence-1 and
// sequence-2 recordings. They name the trajectory in recording stores and
// shard jobs across processes and versions, so a change to how
// trajectories are held in memory, or to the order in which the solver
// visits and relaxes a vicinity, must leave every byte of the encoding
// where it was.
func TestFingerprintStable(t *testing.T) {
	m := ram.RAM64()
	for _, tc := range []struct {
		name string
		seq  *switchsim.Sequence
		want string
	}{
		{"sequence 1", march.Sequence1(m), "168a7e0197cd8a641ea4261b69a98e40f9995f0934519fc50f286d0c27fa2928"},
		{"sequence 2", march.Sequence2(m), "6e8163d61ab471b4473c06f8c3e360431cb1770a4ab8f7648512016c682f6761"},
	} {
		rec := core.Record(m.Net, tc.seq, core.Options{})
		if got := fingerprint(t, rec); got != tc.want {
			t.Errorf("RAM64 %s fingerprints %s, want %s", tc.name, got, tc.want)
		}
		if got := switchsim.FingerprintBytes(encode(t, rec)); got != tc.want {
			t.Errorf("RAM64 %s: FingerprintBytes of the encoding is %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestRecordingSharesRepeatedTrajectories: a march test settles the same
// way at address after address, and a held recording keeps each distinct
// trajectory once. On the capture path (core.Record, through
// Recording.Append), on the decode path and on a recording grown step by
// step without a reserved step count, two steps share a trajectory if and
// only if their trajectories are equal in content, the same steps share on
// every path, and a finished recording keeps no intern table.
func TestRecordingSharesRepeatedTrajectories(t *testing.T) {
	m := ram.RAM64()
	for _, tc := range []struct {
		name            string
		seq             *switchsim.Sequence
		distinct, steps int
	}{
		{"sequence 1", march.Sequence1(m), 877, 2443},
		{"sequence 2", march.Sequence2(m), 732, 1963},
	} {
		rec := core.Record(m.Net, tc.seq, core.Options{})
		dec, err := switchsim.DecodeRecordingBytes(encode(t, rec))
		if err != nil {
			t.Fatal(err)
		}
		grown := &switchsim.Recording{NumNodes: rec.NumNodes, NumTransistors: rec.NumTransistors}
		for i := range rec.Steps {
			grown.Append(&rec.Steps[i])
		}
		want := sharing(t, tc.name+", capture", rec)
		for _, p := range []struct {
			path string
			rec  *switchsim.Recording
		}{{"capture", rec}, {"decode", dec}, {"grown", grown}} {
			name := tc.name + ", " + p.path
			got := sharing(t, name, p.rec)
			distinct := 0
			for i, first := range got {
				if first == i {
					distinct++
				}
			}
			if len(got) != tc.steps || distinct != tc.distinct {
				t.Errorf("%s: %d distinct trajectories of %d steps, want %d of %d", name, distinct, len(got), tc.distinct, tc.steps)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: the steps share trajectories unlike the capture's", name)
			}
			if p.path != "grown" && switchsim.HoldsInternTable(p.rec) {
				t.Errorf("%s: the finished recording still holds its intern table", name)
			}
		}
	}
}

// sharing returns, for each step of rec, the first step holding the same
// trajectory, and fails t unless steps share a trajectory exactly when
// their trajectories are equal in content.
func sharing(t *testing.T, name string, rec *switchsim.Recording) []int {
	t.Helper()
	first := make([]int, len(rec.Steps))
	index := map[*switchsim.Trajectory]int{}
	var held []*switchsim.Trajectory
	for i := range rec.Steps {
		tr := rec.Steps[i].Traj
		if tr == nil {
			t.Fatalf("%s: step %d holds no trajectory", name, i)
		}
		j, ok := index[tr]
		if !ok {
			j, index[tr] = i, i
			held = append(held, tr)
		}
		first[i] = j
	}
	for i, a := range held {
		for _, b := range held[i+1:] {
			if switchsim.SameTrajectory(a, b) {
				t.Fatalf("%s: two steps hold equal trajectories apart", name)
			}
		}
	}
	return first
}

// TestRecordingCodecAllocs guards the codec's allocation behaviour:
// encoding costs a constant number of allocations however long the
// recording, decoding a small multiple of its step count (an owned step's
// input changes, the arrays of each distinct trajectory), never one per
// list or per varint.
func TestRecordingCodecAllocs(t *testing.T) {
	m := ram.RAM64()
	full := march.Sequence1(m)
	short := *full
	short.Patterns = full.Patterns[:16]

	var counts []float64
	for _, seq := range []*switchsim.Sequence{&short, full} {
		rec := core.Record(m.Net, seq, core.Options{})
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
		// Per step its input changes; per distinct trajectory its node and
		// change arrays, itself and its slab of boundary bits and round
		// table; plus the decoder's own scratch and intern table.
		t.Logf("%d steps: DecodeRecordingBytes made %.0f allocations", len(rec.Steps), decAllocs)
		if limit := float64(3*len(rec.Steps) + 64); decAllocs > limit {
			t.Errorf("%d steps: DecodeRecordingBytes made %.0f allocations, want at most %.0f",
				len(rec.Steps), decAllocs, limit)
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("Encode allocations grow with the recording: %.0f for the short one, %.0f for the long", counts[0], counts[1])
	}
}

// TestRecordingFootprint bounds what capturing a recording allocates and
// what a held recording keeps: for RAM256 sequence 1 at most 3.6 MB
// allocated, in a number of objects proportional to the step count and
// independent of the 415 509 vicinities, and at most 3.2 MB of live heap
// for the recording decoded from its wire form. One slice header pair per
// vicinity used to cost 20 MB of the 30 MB allocated, per-step Changed and
// Explored copies of the trajectory 2.7 MB of 11.9, a pair of list ends
// per vicinity 3.1 MB of 8.6, and a copy of every step's trajectory, where
// 3 029 of the 8 683 are distinct, 2.2 MB of 5.5 (and 5.25 MB held).
func TestRecordingFootprint(t *testing.T) {
	m := ram.RAM256()
	seq := march.Sequence1(m)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := core.Record(m.Net, seq, core.Options{})
	runtime.ReadMemStats(&after)

	vics := 0
	for i := range rec.Steps {
		if tr := rec.Steps[i].Traj; tr != nil && tr.NumRounds() > 0 {
			_, end := tr.RoundSpan(tr.NumRounds() - 1)
			vics += end
		}
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d steps, %d vicinities: %.2f MB in %d objects", len(rec.Steps), vics, float64(bytes)/1e6, objects)
	if bytes > 3.6e6 {
		t.Errorf("core.Record allocated %.2f MB, want at most 3.6 MB", float64(bytes)/1e6)
	}
	if limit := uint64(3*len(rec.Steps) + 512); objects > limit || vics < 10*len(rec.Steps) {
		t.Errorf("core.Record allocated %d objects for %d steps and %d vicinities, want at most %d",
			objects, len(rec.Steps), vics, limit)
	}

	enc := encode(t, rec)
	runtime.GC()
	runtime.ReadMemStats(&before)
	dec, err := switchsim.DecodeRecordingBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("held, decoded: %.2f MB", float64(held)/1e6)
	if held > 3.2e6 {
		t.Errorf("the decoded recording holds %.2f MB, want at most 3.2 MB", float64(held)/1e6)
	}
	runtime.KeepAlive(dec)
	runtime.KeepAlive(enc)
}
