package core

import (
	"encoding/json"
	"testing"

	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// mustJSON marshals a BatchResult for byte comparison.
func mustJSON(t *testing.T, br *BatchResult) []byte {
	t.Helper()
	bs, err := json.Marshal(br)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// times returns n copies of f.
func times(f fault.Fault, n int) []fault.Fault {
	out := make([]fault.Fault, n)
	for i := range out {
		out[i] = f
	}
	return out
}

// oneFaultKey names a one-fault reference run.
type oneFaultKey struct {
	f         fault.Fault
	drop      DropPolicy
	maxRounds int
}

// oneFaultBatches is the untrimmed reference: every fault runs in a batch
// of its own, where there is nothing to collapse, and the runs fold into
// the BatchResult one batch of all of them reports — per-fault columns
// side by side, per-setting counts summed, pattern counts summed, and each
// pattern's MaxActive the peak of its summed ActiveCircuits. Runs are
// cached across cases by fault, drop policy and round limit, the only
// inputs a one-fault batch's result depends on.
func oneFaultBatches(t *testing.T, cache map[oneFaultKey]*BatchResult, tab *switchsim.Tables,
	faults []fault.Fault, rec *switchsim.Recording, seq *switchsim.Sequence, opts Options) *BatchResult {
	t.Helper()
	want := &BatchResult{NumFaults: len(faults)}
	for fi, f := range faults {
		k := oneFaultKey{f, opts.Drop, opts.MaxRounds}
		one := cache[k]
		if one == nil {
			var err error
			if one, err = RunBatch(nil, tab, faults[fi:fi+1], rec, seq, opts); err != nil {
				t.Fatal(err)
			}
			cache[k] = one
		}
		want.Detected = append(want.Detected, one.Detected[0])
		want.Detections = append(want.Detections, one.Detections[0])
		want.Oscillated = append(want.Oscillated, one.Oscillated[0])
		want.Records = append(want.Records, one.Records[0])
		if fi == 0 {
			want.PerSetting = append([]SettingStats(nil), one.PerSetting...)
			want.PerPattern = append([]PatternStats(nil), one.PerPattern...)
			continue
		}
		for si, st := range one.PerSetting {
			w := &want.PerSetting[si]
			w.ActiveCircuits += st.ActiveCircuits
			w.LiveFaults += st.LiveFaults
			w.FaultWork += st.FaultWork
			w.LanesReplayed += st.LanesReplayed
			w.ScalarFallbacks += st.ScalarFallbacks
			w.AdoptedVics += st.AdoptedVics
			w.SolvedVics += st.SolvedVics
		}
		for pi, ps := range one.PerPattern {
			w := &want.PerPattern[pi]
			w.LiveBefore += ps.LiveBefore
			w.LiveAfter += ps.LiveAfter
			w.Detected += ps.Detected
			w.FaultWork += ps.FaultWork
		}
	}
	si := 0
	for pi := range want.PerPattern {
		w := &want.PerPattern[pi]
		w.MaxActive = 0
		for _, st := range want.PerSetting[si : si+w.Settings] {
			w.MaxActive = max(w.MaxActive, st.ActiveCircuits)
		}
		si += w.Settings
	}
	return want
}

// TestTrimByteIdentical verifies the central trimming contract: every
// BatchResult field of a batch is byte-identical to the untrimmed
// reference, its faults run in one-fault batches (oneFaultBatches) — for
// a plain fault list (no classes form, so only the dead-tail skip is
// exercised) and for lists assembled with materialization-equivalent and
// duplicate faults, across worker counts and drop policies. Classes
// collapse at construction, so a member never runs a single setting of
// its own: the cases below are the ones where that matters most — a
// class detected by the first observation, one that oscillates in the
// initialization step, an input-node representative, a batch that is one
// class.
func TestTrimByteIdentical(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	base := Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	tab := switchsim.NewTables(m.Net)
	// The good side reads MaxRounds, so each round limit has its recording.
	recs := map[int]*switchsim.Recording{}
	for _, mr := range []int{0, 2} {
		o := base
		o.MaxRounds = mr
		recs[mr] = Record(m.Net, seq, o)
	}
	oneFault := map[oneFaultKey]*BatchResult{}

	plain := fault.NodeStuckFaults(m.Net, fault.Options{})

	// A list with collapsible classes: bridge faults on the bit-line
	// short carriers plus stuck-closed faults on the same transistors
	// (they pin the same channel to the same state, so they materialize
	// identically), and literal duplicates of plain node faults.
	overlap := fault.BridgeFaults(m.BitlineShorts)
	for _, tid := range m.BitlineShorts {
		overlap = append(overlap, fault.Fault{Kind: fault.TransStuckClosed, Trans: tid})
	}
	overlap = append(overlap, plain[:8]...)
	overlap = append(overlap, plain[:8]...) // duplicates

	// The output node stuck at the value it does not reset to differs from
	// the good circuit at the very first observation.
	dout1 := fault.Fault{Kind: fault.NodeStuck1, Node: m.DataOut}
	// A frozen access clock: an input-node fault, whose interest sites are
	// its whole conducting neighbourhood.
	phi2 := fault.Fault{Kind: fault.NodeStuck1, Node: m.PhiTwo}

	// Thirty-two faults twice over, for the round limit of two: under it
	// every circuit oscillates in the initialization step.
	twice := append(append([]fault.Fault(nil), plain[:32]...), plain[:32]...)

	cases := []struct {
		name      string
		faults    []fault.Fault
		work      int
		drop      DropPolicy
		maxRounds int
		classes   int // expected ClassCandidates, every one a freed lane
		// premise, when set, checks the case exercises what its name says,
		// on the trimmed result and the batch that produced it.
		premise func(t *testing.T, br *BatchResult, b *FaultBatch)
	}{
		{name: "plain/w1", faults: plain, work: 1,
			premise: func(t *testing.T, br *BatchResult, b *FaultBatch) {
				if b.Live() != 0 || br.PerSetting[len(br.PerSetting)-1].LiveFaults != 0 {
					t.Fatal("the batch never emptied: its dead tail was not skipped")
				}
			}},
		{name: "plain/workers4", faults: plain, work: 4},
		{name: "overlap/w1", faults: overlap, work: 1, classes: 30},
		{name: "overlap/workers3", faults: overlap, work: 3, classes: 30},
		{name: "overlap/never-drop", faults: overlap, work: 1, drop: NeverDrop, classes: 30,
			premise: func(t *testing.T, br *BatchResult, b *FaultBatch) {
				if b.Live() != len(overlap) || br.DetectedCount() == 0 {
					t.Fatalf("%d of %d live, %d detected: want every circuit live and some detected",
						b.Live(), len(overlap), br.DetectedCount())
				}
			}},
		{name: "overlap/drop-hard-only", faults: overlap, work: 1, drop: DropHardOnly, classes: 30},
		{name: "first-observation", faults: append(times(dout1, 2), plain[:6]...), work: 1, classes: 1,
			premise: func(t *testing.T, br *BatchResult, _ *FaultBatch) {
				for fi := 0; fi < 2; fi++ {
					if d := br.Detections[fi]; !br.Detected[fi] || d.Pattern != 0 || d.Setting != 0 {
						t.Fatalf("fault %d: detected %v at pattern %d setting %d, want the first observation",
							fi, br.Detected[fi], d.Pattern, d.Setting)
					}
				}
			}},
		{name: "init-oscillation", faults: twice, work: 1, drop: NeverDrop, maxRounds: 2, classes: 32,
			premise: func(t *testing.T, br *BatchResult, _ *FaultBatch) {
				// A fresh batch, stepped through the initialization alone:
				// the flags it raises there must be in the result, for
				// representative and member alike.
				o := base
				o.MaxRounds = 2
				b, err := NewFaultBatch(tab, twice, o)
				if err != nil {
					t.Fatal(err)
				}
				b.Step(&recs[2].Steps[0])
				for fi := range twice {
					if !b.Oscillated(fi) || !br.Oscillated[fi] {
						t.Fatalf("fault %d: oscillated in the initialization step %v, in the result %v; want both",
							fi, b.Oscillated(fi), br.Oscillated[fi])
					}
				}
			}},
		{name: "class-of-four", faults: append(times(plain[9], 4), plain[:6]...), work: 1, classes: 3},
		{name: "one-class", faults: times(plain[9], 5), work: 2, classes: 4},
		{name: "input-node-representative", faults: append(times(phi2, 3), plain[:6]...), work: 1, classes: 2,
			premise: func(t *testing.T, br *BatchResult, _ *FaultBatch) {
				if m.Net.Node(phi2.Node).Kind != netlist.Input {
					t.Fatal("phi2 is not an input node")
				}
				if !br.Detected[0] || !br.Detected[2] {
					t.Fatal("a frozen access clock went undetected")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			opts.Workers, opts.Drop, opts.MaxRounds = tc.work, tc.drop, tc.maxRounds
			rec := recs[tc.maxRounds]

			want := oneFaultBatches(t, oneFault, tab, tc.faults, rec, seq, opts)
			batch, err := NewFaultBatch(tab, tc.faults, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := batch.CheckInvariants(); err != nil {
				t.Fatalf("batch invariants at construction: %v", err)
			}
			got, err := batch.RunRecording(nil, rec, seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := batch.CheckInvariants(); err != nil {
				t.Fatalf("batch invariants: %v", err)
			}
			jWant, jGot := mustJSON(t, want), mustJSON(t, got)
			if string(jWant) != string(jGot) {
				t.Fatalf("batch result differs from its one-fault batches\nwant: %.400s\ngot:  %.400s", jWant, jGot)
			}
			ts := batch.TrimStats()
			if ts.ClassCandidates != tc.classes || ts.LanesFreed != tc.classes {
				t.Errorf("classes: %d candidates, %d lanes freed; want %d of each",
					ts.ClassCandidates, ts.LanesFreed, tc.classes)
			}
			if tc.premise != nil {
				tc.premise(t, got, batch)
			}
		})
	}
}
