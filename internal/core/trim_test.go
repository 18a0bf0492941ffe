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

// stripWall zeroes the wall-clock fields (the only contract-exempt data)
// so results can be compared byte-for-byte via their JSON encoding.
func stripWall(br *BatchResult) {
	for i := range br.PerSetting {
		br.PerSetting[i].FaultNS = 0
		br.PerSetting[i].GoodNS = 0
	}
	for i := range br.PerPattern {
		br.PerPattern[i].FaultNS = 0
		br.PerPattern[i].GoodNS = 0
	}
}

// mustJSON encodes a BatchResult canonically for byte comparison.
func mustJSON(t *testing.T, br *BatchResult) []byte {
	t.Helper()
	stripWall(br)
	bs, err := json.Marshal(br)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestTrimByteIdentical verifies the central trimming contract: with
// Options.Trim on, every BatchResult field is byte-identical to the
// untrimmed run — for a plain fault list (no classes form, so only the
// dead-tail skip is exercised) and for a list assembled with
// materialization-equivalent and duplicate faults (class collapse fires
// too), across lane widths, worker counts, and probation windows.
func TestTrimByteIdentical(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	base := Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	rec := Record(m.Net, seq, base)
	tab := switchsim.NewTables(m.Net)

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

	cases := []struct {
		name    string
		faults  []fault.Fault
		lane    int
		work    int
		prob    int
		classes int // expected ClassCandidates, all of which must collapse
	}{
		{"plain/w1", plain, 64, 1, 0, 0},
		{"plain/lane7", plain, 7, 1, 0, 0},
		{"plain/workers4", plain, 64, 4, 0, 0},
		{"overlap/w1", overlap, 64, 1, 0, 30},
		{"overlap/prob1", overlap, 64, 1, 1, 30},
		{"overlap/lane5-workers3", overlap, 5, 3, 3, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			off := base
			off.LaneWidth, off.Workers = tc.lane, tc.work
			on := off
			on.Trim = true
			on.TrimProbation = tc.prob

			bOff, err := RunBatch(nil, tab, tc.faults, rec, seq, off)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewFaultBatch(tab, tc.faults, on)
			if err != nil {
				t.Fatal(err)
			}
			bOn, err := batch.RunRecording(nil, rec, seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := batch.CheckInvariants(); err != nil {
				t.Fatalf("trimmed batch invariants: %v", err)
			}
			jOff, jOn := mustJSON(t, bOff), mustJSON(t, bOn)
			if string(jOff) != string(jOn) {
				t.Fatalf("trimmed result differs from untrimmed\noff: %.400s\non:  %.400s", jOff, jOn)
			}
			ts := batch.TrimStats()
			if ts.ClassCandidates != tc.classes || ts.LanesFreed != tc.classes {
				t.Errorf("classes: %d candidates, %d lanes freed; want %d of each",
					ts.ClassCandidates, ts.LanesFreed, tc.classes)
			}
		})
	}
}
