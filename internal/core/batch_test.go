package core_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"unsafe"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestRunBatchMatchesMonolithic: a single batch replayed over a
// recorded trajectory reproduces the monolithic simulator exactly —
// the core seam the campaign engine builds on.
func TestRunBatchMatchesMonolithic(t *testing.T) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	seq := march.Sequence1(m)
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}

	mono, err := core.New(m.Net, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	monoRes := mono.Run(seq)

	rec := core.Record(m.Net, seq, core.Options{})
	br, err := core.RunBatch(context.Background(), switchsim.NewTables(m.Net), faults, rec, seq, opts)
	if err != nil {
		t.Fatal(err)
	}

	for fi := range faults {
		md, mok := mono.Detected(fi)
		if br.Detected[fi] != mok || (mok && br.Detections[fi] != md) {
			t.Fatalf("fault %s: batch detection %+v(%v) vs monolithic %+v(%v)",
				faults[fi].Describe(m.Net), br.Detections[fi], br.Detected[fi], md, mok)
		}
		if br.Oscillated[fi] != mono.Oscillated(fi) {
			t.Fatalf("fault %s: oscillation mismatch", faults[fi].Describe(m.Net))
		}
		mrec := mono.Records(fi)
		if len(mrec) != len(br.Records[fi]) {
			t.Fatalf("fault %s: %d records vs %d", faults[fi].Describe(m.Net), len(br.Records[fi]), len(mrec))
		}
		for n, v := range mrec {
			if br.Records[fi][n] != v {
				t.Fatalf("fault %s node %s: %s vs %s", faults[fi].Describe(m.Net), m.Net.Name(n), br.Records[fi][n], v)
			}
		}
	}

	var fw int64
	for _, st := range br.PerSetting {
		fw += st.FaultWork
	}
	if fw != monoRes.FaultWork {
		t.Fatalf("fault work %d vs monolithic %d", fw, monoRes.FaultWork)
	}
	// A batch's pattern row keeps the counts; the per-setting rows give
	// the pattern's work and peak.
	si := 0
	for pi := range monoRes.PerPattern {
		mp, bp := monoRes.PerPattern[pi], br.PerPattern[pi]
		var work int64
		peak := 0
		for _, st := range br.PerSetting[si : si+mp.Settings] {
			work += st.FaultWork
			peak = max(peak, st.ActiveCircuits)
		}
		si += mp.Settings
		if work != mp.FaultWork || peak != mp.MaxActive ||
			bp.Detected != mp.Detected || bp.LiveBefore != mp.LiveBefore || bp.LiveAfter != mp.LiveAfter {
			t.Fatalf("pattern %d stats mismatch: batch %+v (work %d, peak %d) vs mono %+v", pi, bp, work, peak, mp)
		}
	}

	// A consumed batch refuses to replay again.
	b2, err := core.NewFaultBatch(switchsim.NewTables(m.Net), faults[:2], opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.RunRecording(context.Background(), rec, seq); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.RunRecording(context.Background(), rec, seq); err == nil {
		t.Fatal("re-running a consumed batch should fail")
	}
}

// allocBytes measures heap bytes allocated by f on the calling goroutine.
func allocBytes(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestBatchMemoryScalesWithWidth is the acceptance check for the pooled
// record scratch: growing a batch by ΔF faults must cost far less than
// ΔF × numNodes bytes. The former design gave every fault a dense
// node-indexed bitmap + value array (≈ 1.125 × numNodes bytes per
// fault); pooling them per worker leaves only the sparse divergence
// store, whose size is activity-dependent and tiny at construction.
func TestBatchMemoryScalesWithWidth(t *testing.T) {
	m := ram.RAM256()
	tab := switchsim.NewTables(m.Net)
	// Transistor faults have two-node site sets: their construction cost
	// isolates the per-fault bookkeeping from workload-dependent site
	// fanout.
	faults := fault.TransistorStuckFaults(m.Net, fault.Options{})
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	const small, delta = 16, 256
	if len(faults) < small+delta {
		t.Fatalf("universe too small: %d", len(faults))
	}

	sink := make([]*core.FaultBatch, 0, 2)
	mk := func(n int) func() {
		return func() {
			b, err := core.NewFaultBatch(tab, faults[:n], opts)
			if err != nil {
				t.Fatal(err)
			}
			sink = append(sink, b)
		}
	}
	base := allocBytes(mk(small))
	big := allocBytes(mk(small + delta))
	_ = sink

	perFault := float64(big-base) / float64(delta)
	densePerFault := float64(m.Net.NumNodes()) * 1.125 // old recVal + recBits
	t.Logf("numNodes=%d: %.0f B/fault marginal (dense design needed ≥ %.0f)",
		m.Net.NumNodes(), perFault, densePerFault)
	if perFault > densePerFault/2 {
		t.Fatalf("per-fault construction cost %.0f B approaches the dense design's %.0f B: pooling regressed",
			perFault, densePerFault)
	}
}

// TestRearmKeepsBatchScratch pins what Reset saves. A re-armed RAM64
// batch replaying a window allocates its result and little else: at most
// the bytes of the decoded result (what any replay of the window hands
// back) plus those of one fresh construction, where a fresh RunBatch of the
// same window also pays the construction (circuits, interest rows, worker
// circuits and solvers) and regrows the replay index and solver queues
// during the run. One worker keeps the fan-out inline, so the counts are
// the same from run to run. A change that allocates the index or the
// workers per batch again fails it.
func TestRearmKeepsBatchScratch(t *testing.T) {
	m := ram.RAM64()
	tab := switchsim.NewTables(m.Net)
	seq := march.Sequence1(m)
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	rec := core.RecordTables(tab, seq, opts)
	first, window := faults[:64], faults[64:128]

	b, err := core.NewFaultBatch(tab, first, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunRecording(context.Background(), rec, seq); err != nil {
		t.Fatal(err)
	}
	var sink []any
	construct := allocBytes(func() {
		nb, err := core.NewFaultBatch(tab, window, opts)
		if err != nil {
			t.Fatal(err)
		}
		sink = append(sink, nb)
	})
	var br *core.BatchResult
	fresh := allocBytes(func() {
		if br, err = core.RunBatch(context.Background(), tab, window, rec, seq, opts); err != nil {
			t.Fatal(err)
		}
	})
	bin, err := br.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	result := allocBytes(func() {
		var br core.BatchResult
		if err := br.UnmarshalBinary(bin); err != nil {
			t.Fatal(err)
		}
		sink = append(sink, &br)
	})
	rearmed := allocBytes(func() {
		if err := b.Reset(window, opts); err != nil {
			t.Fatal(err)
		}
		br, err := b.RunRecording(context.Background(), rec, seq)
		if err != nil {
			t.Fatal(err)
		}
		sink = append(sink, br)
	})
	_ = sink
	t.Logf("RAM64 window of %d faults: fresh RunBatch %d B, Reset+RunRecording %d B (construction %d B, decoded result %d B)",
		len(window), fresh, rearmed, construct, result)
	if rearmed > result+construct {
		t.Fatalf("a re-armed batch allocates %d B: more than its %d B result plus one %d B construction (a fresh RunBatch allocates %d B)",
			rearmed, result, construct, fresh)
	}
}

// TestRearmReusesRowTables pins ReuseRows: a re-armed batch handed the
// row tables of its previous result fills them, so the slot's second
// batch allocates less than one per-setting table of the sequence — a
// re-arm that made the tables again would allocate more than that on its
// own — and its result is byte for byte a fresh RunBatch's of the window.
// One worker keeps the fan-out inline, so the counts are the same from
// run to run.
func TestRearmReusesRowTables(t *testing.T) {
	m := ram.RAM64()
	tab := switchsim.NewTables(m.Net)
	seq := march.Sequence1(m)
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	rec := core.RecordTables(tab, seq, opts)
	first, window := faults[:64], faults[64:128]

	b, err := core.NewFaultBatch(tab, first, opts)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := b.RunRecording(context.Background(), rec, seq)
	if err != nil {
		t.Fatal(err)
	}
	table := uint64(seq.NumSettings()) * uint64(unsafe.Sizeof(core.SettingStats{}))
	rows := &prev.PerSetting[0]
	var br *core.BatchResult
	second := allocBytes(func() {
		if err := b.Reset(window, opts); err != nil {
			t.Fatal(err)
		}
		b.ReuseRows(prev.PerSetting, prev.PerPattern)
		if br, err = b.RunRecording(context.Background(), rec, seq); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RAM64 sequence 1, %d settings: second batch of a re-armed slot %d B, one per-setting table %d B", seq.NumSettings(), second, table)
	if &br.PerSetting[0] != rows {
		t.Fatal("the second batch's per-setting rows are not in the table ReuseRows handed over")
	}
	if second >= table {
		t.Fatalf("the second batch allocates %d B, not less than one %d B per-setting table: its rows were allocated again", second, table)
	}
	fresh, err := core.RunBatch(context.Background(), tab, window, rec, seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := br.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the batch that refilled its handed-over rows encodes to other bytes than a fresh RunBatch of its window")
	}
}

// TestDropPolicyString covers the policy names.
func TestDropPolicyString(t *testing.T) {
	cases := map[core.DropPolicy]string{
		core.DropAnyDifference: "drop-any-difference",
		core.DropHardOnly:      "drop-hard-only",
		core.NeverDrop:         "never-drop",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("DropPolicy(%d).String() = %q, want %q", uint8(p), got, want)
		}
	}
	if got := core.DropPolicy(200).String(); got != "DropPolicy(200)" {
		t.Errorf("unknown policy prints %q", got)
	}
}
