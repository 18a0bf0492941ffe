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

// scratchTrajectory builds a trajectory from its rounds' vicinities,
// through the write API, as a recording solver leaves it.
func scratchTrajectory(rounds ...[]testVic) *Trajectory {
	tr := &Trajectory{}
	for _, round := range rounds {
		for _, v := range round {
			tr.nodes = append(tr.nodes, v.members...)
			tr.changes = append(tr.changes, v.changes...)
			tr.endVicinity()
		}
		tr.endRound()
	}
	return tr
}

// testTrajectory is scratchTrajectory as a recording holds it.
func testTrajectory(rounds ...[]testVic) *Trajectory {
	return scratchTrajectory(rounds...).held()
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

// TestRecordingKeepsNearTwinsApart: a recording shares a trajectory only
// between steps whose trajectories are equal in content. Each twin below
// differs from the base in one respect only — how its lists split into
// vicinities, how its vicinities split into rounds, one change value, or
// (a forced collision) nothing but a shared hash slot — and must be held
// apart from it on capture and on decode, while an exact repeat of the
// base is shared.
func TestRecordingKeepsNearTwinsApart(t *testing.T) {
	c := func(n netlist.NodeID, v logic.Value) Change { return Change{Node: n, Value: v} }
	ids := func(n ...netlist.NodeID) []netlist.NodeID { return n }
	base := [][]testVic{
		{{members: ids(1)}, {members: ids(2), changes: []Change{c(2, logic.Hi)}}},
		{{members: ids(3), changes: []Change{c(3, logic.Lo)}}},
	}
	for _, tc := range []struct {
		name string
		twin [][]testVic
		// same names what the twin shares with the base, checked first so
		// that each case isolates one difference.
		same func(a, b *Trajectory) bool
	}{
		{"vicinities split differently", [][]testVic{
			{{members: ids(1, 2)}, {changes: []Change{c(2, logic.Hi)}}},
			{{members: ids(3), changes: []Change{c(3, logic.Lo)}}},
		}, func(a, b *Trajectory) bool {
			return reflect.DeepEqual(a.roundTable(), b.roundTable()) && sameLists(a, b)
		}},
		{"rounds split differently", [][]testVic{
			{{members: ids(1)}},
			{{members: ids(2), changes: []Change{c(2, logic.Hi)}}, {members: ids(3), changes: []Change{c(3, logic.Lo)}}},
		}, func(a, b *Trajectory) bool {
			return reflect.DeepEqual(a.bitsInUse(), b.bitsInUse()) && sameLists(a, b)
		}},
		{"one change value flipped", [][]testVic{
			{{members: ids(1)}, {members: ids(2), changes: []Change{c(2, logic.Hi)}}},
			{{members: ids(3), changes: []Change{c(3, logic.Hi)}}},
		}, func(a, b *Trajectory) bool {
			return reflect.DeepEqual(a.tab, b.tab) && reflect.DeepEqual(a.nodes, b.nodes)
		}},
	} {
		a, b := scratchTrajectory(base...), scratchTrajectory(tc.twin...)
		if a.vics != b.vics || a.memberEnd != b.memberEnd || a.changeEnd != b.changeEnd || !tc.same(a, b) {
			t.Fatalf("%s: the twin differs from the base in more than one respect", tc.name)
		}
		if a.sameContent(b) || b.sameContent(a) {
			t.Errorf("%s: the twins compare equal in content", tc.name)
		}
		rec := &Recording{NumNodes: 4}
		for _, tr := range []*Trajectory{a, b, scratchTrajectory(base...)} {
			rec.Append(&StepTrace{Traj: tr})
		}
		dec, err := DecodeRecordingBytes(encodeRecording(t, rec))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			path string
			rec  *Recording
		}{{"capture", rec}, {"decode", dec}} {
			if st := r.rec.Steps; st[0].Traj == st[1].Traj {
				t.Errorf("%s, %s: the twin shares the base's trajectory", tc.name, r.path)
			} else if st[2].Traj != st[0].Traj {
				t.Errorf("%s, %s: an exact repeat of the base is held apart from it", tc.name, r.path)
			}
		}
	}

	// Two trajectories whose hashes collide are told apart by the full
	// compare: the second probes past the first's slot.
	a, b := scratchTrajectory(base...), scratchTrajectory(base[1:]...)
	set := trajSet{b.contentHash(): a.held()}
	hb := set.hold(b)
	if hb == set[b.contentHash()] || !hb.sameContent(b) {
		t.Error("a colliding trajectory shares the slot holder's trajectory")
	}
	if set.hold(scratchTrajectory(base[1:]...)) != hb {
		t.Error("a repeat of the colliding trajectory is not found past the slot holder")
	}
}

// sameLists reports whether a and b have the same member and change lists.
func sameLists(a, b *Trajectory) bool {
	an, ac := a.Lists()
	bn, bc := b.Lists()
	return reflect.DeepEqual(an, bn) && reflect.DeepEqual(ac, bc)
}

// encodeRecording returns rec's encoding.
func encodeRecording(t *testing.T, rec *Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
