package core

import (
	"math/bits"
	"strings"
	"testing"

	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestObserveDetectsRecordHoldersInFaultOrder: Observe scans dout's
// interest row, which also holds circuits interested in dout without a
// record there (through a fault site or a gated neighbour). Under NeverDrop
// every circuit stays in the row, so every observation must report only
// circuits whose record at dout is the detected faulty value and differs
// from the good one — never an interest bit alone — and report them in
// ascending fault order across lane words, as a scan of per-node state
// lists sorted by circuit id would.
func TestObserveDetectsRecordHoldersInFaultOrder(t *testing.T) {
	m := ram.RAM64()
	faults := wideUniverse(m)
	seq := *march.Sequence1(m)
	seq.Patterns = seq.Patterns[:120]
	o := m.DataOut
	var b *FaultBatch
	interestOnly, multiWord := 0, false
	opts := Options{Observe: []netlist.NodeID{o}, Workers: 1, Drop: NeverDrop}
	opts.OnObserve = func(p BatchProgress) {
		row := b.interestMask[int(o)*b.words : (int(o)+1)*b.words]
		for w, word := range row {
			for ; word != 0; word &= word - 1 {
				if _, ok := b.faults[w<<6+bits.TrailingZeros64(word)].recs.get(o); !ok {
					interestOnly++
				}
			}
		}
		det := p.Detected
		for i, fi := range det {
			if i > 0 && det[i-1] >= fi {
				t.Fatalf("pattern %d: detections %v are not in ascending fault order", p.Pattern, det)
			}
			d := b.faults[fi].det
			v, ok := b.faults[fi].recs.get(o)
			if d.Output != o || !ok || v != d.Faulty || v == d.Good {
				t.Fatalf("pattern %d: %s detected as %+v, holding record (%v, %v) at dout",
					p.Pattern, faults[fi].Describe(m.Net), d, v, ok)
			}
		}
		if len(det) > 1 && det[0]>>6 != det[len(det)-1]>>6 {
			multiWord = true
		}
	}
	rec := Record(m.Net, &seq, opts)
	var err error
	if b, err = NewFaultBatch(switchsim.NewTables(m.Net), faults, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunRecording(nil, rec, &seq); err != nil {
		t.Fatal(err)
	}
	if interestOnly == 0 || !multiWord {
		t.Fatalf("the workload never put an interest-only bit in dout's row (%d) or detected across lane words (%v)",
			interestOnly, multiWord)
	}
}

// TestCheckInvariantsRejectsRecordEqualToGood is the negative control for
// the invariant Observe relies on: a live circuit's record that repeats
// the good value at its node is reported.
func TestCheckInvariantsRejectsRecordEqualToGood(t *testing.T) {
	m := ram.RAM64()
	seq := *march.Sequence1(m)
	seq.Patterns = seq.Patterns[:8]
	opts := Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1, Drop: NeverDrop}
	rec := Record(m.Net, &seq, opts)
	b, err := NewFaultBatch(switchsim.NewTables(m.Net), wideUniverse(m), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunRecording(nil, rec, &seq); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, fs := range b.faults {
		if fs.recs.size() > 0 {
			fs.recs.vals[0] = b.good.Value(fs.recs.nodes[0])
			err := b.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "equals the good value") {
				t.Fatalf("a record equal to the good value passed the invariants: %v", err)
			}
			return
		}
	}
	t.Fatal("no circuit holds a record")
}
