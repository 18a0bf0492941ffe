package switchsim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// testVic is one vicinity of a hand-built trajectory.
type testVic struct {
	members []netlist.NodeID
	changes []Change
}

// testTrajectory builds a trajectory from its rounds' vicinities, through
// the write API, and returns it as a recording holds it.
func testTrajectory(rounds ...[]testVic) *Trajectory {
	tr := &Trajectory{}
	for _, round := range rounds {
		for _, v := range round {
			tr.nodes = append(tr.nodes, v.members...)
			tr.changes = append(tr.changes, v.changes...)
			tr.endVicinity()
		}
		tr.endRound()
	}
	return (&StepTrace{Traj: tr}).owned().Traj
}

// fakeRecording builds a small recording by hand, exercising every field:
// an oscillated step keeps its trajectory, and a step may have none.
func fakeRecording() *Recording {
	rec := &Recording{NumNodes: 16, NumTransistors: 9}
	rec.Steps = append(rec.Steps, StepTrace{
		Init:     true,
		GoodWork: 1234,
		Traj: testTrajectory(
			[]testVic{
				{members: []netlist.NodeID{3, 5}, changes: []Change{{Node: 3, Value: logic.Hi}}},
				{members: []netlist.NodeID{7}},
			},
			[]testVic{
				{members: []netlist.NodeID{5}, changes: []Change{{Node: 5, Value: logic.X}}},
			},
		),
	})
	rec.Steps = append(rec.Steps, StepTrace{
		InputChanges: []Change{{Node: 0, Value: logic.Lo}},
		Oscillated:   true,
		GoodWork:     55,
		Traj: testTrajectory(
			[]testVic{{members: []netlist.NodeID{2, 9}, changes: []Change{{Node: 9, Value: logic.Hi}}}},
			[]testVic{{members: []netlist.NodeID{2, 9}, changes: []Change{{Node: 2, Value: logic.X}, {Node: 9, Value: logic.X}}}},
		),
	})
	rec.Steps = append(rec.Steps, StepTrace{
		InputChanges: []Change{{Node: 1, Value: logic.Hi}},
		GoodWork:     7,
	})
	return rec
}

// headerLen returns the length of rec's encoded header: where its first
// step starts.
func headerLen(rec *Recording) int {
	n := len(recordingMagic)
	for _, v := range []int{rec.NumNodes, rec.NumTransistors, len(rec.Steps)} {
		n += UvarintLen(uint64(v))
	}
	return n
}

func TestRecordingRoundTrip(t *testing.T) {
	rec := fakeRecording()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := bytes.Clone(buf.Bytes())
	got, err := DecodeRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", rec, got)
	}
	// Each step keeps one reserved slot where the format once carried a
	// time: Encode writes 0 there and the decoder skips whatever it finds.
	slot := headerLen(rec) + 1 + 2 // step 0: flags, then GoodWork 1234 in two bytes
	if enc[slot] != 0 {
		t.Errorf("reserved slot of step 0 holds %d, want 0", enc[slot])
	}
	enc[slot] = 99
	if got, err = DecodeRecordingBytes(enc); err != nil || !reflect.DeepEqual(rec, got) {
		t.Fatalf("a stream with a non-zero reserved slot decodes to %+v (err %v)", got, err)
	}
	if rec.NumSettings() != 2 {
		t.Errorf("NumSettings = %d, want 2", rec.NumSettings())
	}
	if w := rec.GoodWork(); w != 1234+55+7 {
		t.Errorf("GoodWork = %d", w)
	}
}

// TestRecordingDecodeV2: a stream of the previous format, whose steps
// carried Changed and Explored copies of the trajectory, is refused by the
// name of its format, even when the body would parse.
func TestRecordingDecodeV2(t *testing.T) {
	var buf bytes.Buffer
	if err := fakeRecording().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	copy(enc, "FMOSREC2")
	if _, err := DecodeRecordingBytes(enc); err == nil || !strings.Contains(err.Error(), "FMOSREC2 is retired") {
		t.Fatalf("v2 stream: err = %v, want FMOSREC2 refused by name", err)
	}
}

// TestRecordingDecodeV1 verifies the decoder rejects the retired
// FMOSREC1 stream version by its magic, even when the body would parse.
func TestRecordingDecodeV1(t *testing.T) {
	rec := fakeRecording()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	copy(enc, "FMOSREC1")
	if _, err := DecodeRecording(bytes.NewReader(enc)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("v1 stream: err = %v, want bad magic", err)
	}
}

func TestRecordingDecodeErrors(t *testing.T) {
	rec := fakeRecording()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	if _, err := DecodeRecording(strings.NewReader("NOTAREC1")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := DecodeRecording(bytes.NewReader(enc[:len(enc)/2])); err == nil {
		t.Error("truncated stream should fail")
	}
	// A step flagged as carrying a state frame, which earlier builds wrote
	// for mid-batch resume: refused by name, whatever follows the step.
	framed := append([]byte(nil), enc...)
	framed[headerLen(rec)] |= flagFrame
	if _, err := DecodeRecordingBytes(framed); err == nil || !strings.Contains(err.Error(), "state frames") {
		t.Errorf("frame bit set: err = %v, want the state-frames refusal", err)
	}
	// A blunt sweep over single-byte corruptions past the magic: an
	// out-of-range node id, a lying length or a bad value must come back
	// as an error, never a panic (many corruptions legitimately still
	// decode).
	for i := len(recordingMagic); i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		DecodeRecording(bytes.NewReader(mut)) // must not panic
	}
}

func TestRecordingValidate(t *testing.T) {
	rec := fakeRecording()
	other := &Recording{NumNodes: 5, NumTransistors: 1, Steps: rec.Steps}
	// Build a real network with the matching fingerprint: 16 nodes, no
	// transistors... except fakeRecording claims 9 transistors, so adjust
	// the recording fingerprints to the built network instead.
	nw := netlist.New(logic.Scale{Sizes: 2, Strengths: 2})
	for i := 0; i < 16; i++ {
		if _, err := nw.AddStorage(nodeName(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Finalize(); err != nil {
		t.Fatal(err)
	}
	rec.NumNodes, rec.NumTransistors = nw.NumNodes(), nw.NumTransistors()
	if err := rec.Validate(nw, 2); err != nil {
		t.Errorf("valid recording rejected: %v", err)
	}
	if err := rec.Validate(nw, 3); err == nil {
		t.Error("setting-count mismatch accepted")
	}
	if err := other.Validate(nw, 2); err == nil {
		t.Error("fingerprint mismatch accepted")
	}
	empty := &Recording{NumNodes: 16}
	if err := empty.Validate(nw, -1); err == nil {
		t.Error("empty recording accepted")
	}
}

func nodeName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}
