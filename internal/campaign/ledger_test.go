package campaign

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// shuffledUniverse returns n stuck-at faults of a 4×4 RAM in a seeded
// shuffled order, so that batch order is not index order.
func shuffledUniverse(n int) (*netlist.Network, []fault.Fault) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	fs := fault.NodeStuckFaults(m.Net, fault.Options{})[:n]
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return m.Net, fs
}

// oneSetting returns a sequence of one pattern of one setting, the
// smallest sequence a detection can name, and the good work of its
// setting for Ledger.Finish.
func oneSetting() (*switchsim.Sequence, func(si int) int64) {
	seq := &switchsim.Sequence{Name: "one", Patterns: []switchsim.Pattern{{Name: "p", Settings: make([]switchsim.Setting, 1)}}}
	return seq, func(int) int64 { return 0 }
}

// batchWith fabricates a completed batch result of n faults over
// oneSetting's sequence, the first det of them detected at its setting.
func batchWith(n, det int) *core.BatchResult {
	br := &core.BatchResult{
		NumFaults:  n,
		Detected:   make([]bool, n),
		Detections: make([]core.Detection, n),
		Oscillated: make([]bool, n),
		Records:    make([]map[netlist.NodeID]logic.Value, n),
		PerSetting: make([]core.SettingStats, 1),
		PerPattern: make([]core.BatchPattern, 1),
	}
	for i := 0; i < det; i++ {
		br.Detected[i] = true
	}
	return br
}

// TestLedgerFold feeds the ledger hand-made reports: duplicate, stale and
// restarted-from-zero per-batch counts never lower Detected; a resumed
// batch is pre-counted; NewlyDetected is mapped from window positions to
// universe indices; the final event's Detected is the merged result's.
func TestLedgerFold(t *testing.T) {
	var events []ProgressEvent
	seq, goodWork := oneSetting()
	nw, faults := shuffledUniverse(40)
	l := NewLedger(context.Background(), nw, faults, seq, 10, 0, 0, func(ev ProgressEvent) {
		if n := len(events); n > 0 && ev.Detected < events[n-1].Detected {
			t.Errorf("Detected regressed: %d -> %d", events[n-1].Detected, ev.Detected)
		}
		events = append(events, ev)
	})
	last := func() ProgressEvent { return events[len(events)-1] }

	if l.Batches() != 4 || l.BatchSize() != 10 {
		t.Fatalf("ledger shape: %d batches of %d", l.Batches(), l.BatchSize())
	}
	l.resume(3, batchWith(10, 4))
	if l.start(3) {
		t.Fatal("a resumed batch may not start")
	}

	for i := 0; i < 3; i++ {
		if !l.start(i) {
			t.Fatalf("batch %d refused", i)
		}
	}
	l.Report(1, ProgressEvent{Detected: 3, NewlyDetected: []int{0, 7, 10}})
	if ev := last(); ev.Detected != 7 || ev.BatchesDone != 1 || ev.Batch != 1 ||
		ev.NumFaults != 40 || ev.Batches != 4 || len(ev.NewlyDetected) != 2 ||
		faults[ev.NewlyDetected[0]] != l.Faults()[10] || faults[ev.NewlyDetected[1]] != l.Faults()[17] {
		t.Fatalf("first folded event: %+v (position 10 outside the window must be dropped)", ev)
	}
	for _, cum := range []int{3, 1, 0} { // duplicate, stale, a rerun restarting at zero
		l.Report(1, ProgressEvent{Detected: cum})
		if ev := last(); ev.Detected != 7 {
			t.Fatalf("report of %d moved Detected to %d", cum, ev.Detected)
		}
	}
	l.Report(1, ProgressEvent{Detected: 2}) // a rerun, still below its first attempt
	l.Report(0, ProgressEvent{Detected: 5})
	if ev := last(); ev.Detected != 12 {
		t.Fatalf("Detected %d after batch 0 reported 5, want 12", ev.Detected)
	}

	if n := l.outstanding(); n != 3 {
		t.Fatalf("%d batches outstanding, want 3", n)
	}
	l.complete(0, batchWith(10, 6))
	l.complete(1, batchWith(10, 3))
	l.complete(2, batchWith(10, 0))
	if ev := last(); !ev.BatchDone || ev.BatchesDone != 4 || ev.Detected != 13 {
		t.Fatalf("last completion event: %+v", ev)
	}
	if n := l.outstanding(); n != 0 {
		t.Fatalf("%d batches outstanding with every batch complete", n)
	}

	res, err := l.Finish(goodWork)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Detected != last().Detected {
		t.Fatalf("merged %d detections, final event showed %d", res.Run.Detected, last().Detected)
	}
	if res.Batches != 4 || res.BatchesRun != 3 || res.BatchesResumed != 1 || res.BatchesSkipped != 0 {
		t.Fatalf("accounting: %d = %d run + %d resumed + %d skipped",
			res.Batches, res.BatchesRun, res.BatchesResumed, res.BatchesSkipped)
	}
	if l.Batch(3) == nil || l.Batch(0).DetectedCount() != 6 {
		t.Fatal("Ledger.Batch does not return what was recorded")
	}
}

// TestLedgerCancelRule: a cancel issued from inside the callback that
// first shows the target met finds the ruling already made — the run
// context stays live, started batches may finish (and retry), unstarted
// ones are refused and merge as skipped. A cancel before the target
// aborts the run, and detections reported afterwards do not revive it.
func TestLedgerCancelRule(t *testing.T) {
	seq, goodWork := oneSetting()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nw, faults := shuffledUniverse(40)
	var l *Ledger
	l = NewLedger(ctx, nw, faults, seq, 10, 0, 0.25, func(ev ProgressEvent) {
		if ev.Coverage() >= 0.25 {
			if !l.reached {
				t.Error("target shown to the callback before the ledger ruled it reached")
			}
			cancel()
		}
	})
	if !l.start(0) || !l.start(1) {
		t.Fatal("live campaign refused a batch")
	}
	l.Report(0, ProgressEvent{Detected: 9})
	l.Report(1, ProgressEvent{Detected: 1}) // 10 of 40: the target
	l.abort()                               // what context.AfterFunc runs on the cancel
	if err := l.run.Err(); err != nil {
		t.Fatalf("run context after a cancel at the target: %v", err)
	}
	if l.start(2) {
		t.Fatal("an unstarted batch started after the target")
	}
	if n := l.outstanding(); n != 2 {
		t.Fatalf("%d outstanding after the target, want the 2 in flight", n)
	}
	l.complete(0, batchWith(10, 9))
	l.complete(1, batchWith(10, 2))
	res, err := l.Finish(goodWork)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchesRun != 2 || res.BatchesSkipped != 2 {
		t.Fatalf("early-stopped accounting: %d run, %d skipped", res.BatchesRun, res.BatchesSkipped)
	}
	// The skipped faults are the last two windows' — in batch order, not
	// the universe's last twenty.
	for p, fi := range l.order {
		if skipped := p >= 20; res.PerFault[fi].Skipped != skipped {
			t.Fatalf("fault %d at batch position %d: skipped %v, want %v", fi, p, res.PerFault[fi].Skipped, skipped)
		}
	}

	ctx, cancel = context.WithCancel(context.Background())
	l = NewLedger(ctx, nw, faults, seq, 10, 0, 0.25, nil)
	l.start(0)
	cancel()
	<-l.run.Done()
	if l.start(1) {
		t.Fatal("a batch started after the caller's cancel")
	}
	l.Report(0, ProgressEvent{Detected: 10})
	if l.reached {
		t.Fatal("an aborted campaign reached its target")
	}
	if _, err := l.Finish(goodWork); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted campaign returned %v, want context.Canceled", err)
	}
}

// TestLedgerRefusesWrongShape: a batch result that is not as wide as its
// window, whose per-setting or per-pattern table is not as long as the
// sequence, that detects at a pattern or setting the sequence does not
// have, or that names a node outside the network or a logic value outside
// {0, 1, X} in a detection or a record, is refused where it arrives — by
// resume as by complete — and the batch stays outstanding and may run
// again; nothing of the wrong shape reaches the merge, or a caller that
// prints the nodes or patterns it names.
func TestLedgerRefusesWrongShape(t *testing.T) {
	seq, goodWork := oneSetting()
	nw, faults := shuffledUniverse(15)
	l := NewLedger(context.Background(), nw, faults, seq, 10, 0, 0, nil)
	short := batchWith(10, 2)
	short.Detected = short.Detected[:9]
	twoSettings := batchWith(10, 2)
	twoSettings.PerSetting = make([]core.SettingStats, 2)
	noPattern := batchWith(10, 2)
	noPattern.PerPattern = nil
	farPattern := batchWith(10, 2)
	farPattern.Detections[1].Pattern = 1 << 20
	negPattern := batchWith(10, 2)
	negPattern.Detections[0].Pattern = -1
	farSetting := batchWith(10, 2)
	farSetting.Detections[1].Setting = 1
	negSetting := batchWith(10, 2)
	negSetting.Detections[0].Setting = -1
	farOutput := batchWith(10, 2)
	farOutput.Detections[1].Output = 1 << 20
	negOutput := batchWith(10, 2)
	negOutput.Detections[0].Output = -1
	badValue := batchWith(10, 2)
	badValue.Detections[1].Faulty = logic.X + 1
	farRecord := batchWith(10, 2)
	farRecord.Records[7] = map[netlist.NodeID]logic.Value{3: logic.Hi, netlist.NodeID(nw.NumNodes()): logic.Lo}
	badRecord := batchWith(10, 2)
	badRecord.Records[9] = map[netlist.NodeID]logic.Value{3: logic.X + 1}
	wrong := []*core.BatchResult{batchWith(3, 1), short, twoSettings, noPattern, farPattern, negPattern, farSetting, negSetting,
		farOutput, negOutput, badValue, farRecord, badRecord}

	if err := l.resume(1, batchWith(10, 0)); !errors.Is(err, ErrBatchShape) {
		t.Fatalf("a 10-wide result resumed into the 5-wide last window: %v", err)
	}
	l.start(0)
	for _, br := range wrong {
		shape := fmt.Sprintf("%d faults (%d flags, %d settings in %d patterns)", br.NumFaults, len(br.Detected), len(br.PerSetting), len(br.PerPattern))
		if err := l.resume(0, br); !errors.Is(err, ErrBatchShape) {
			t.Fatalf("a result of %s resumed a 10-wide batch over a sequence of one setting: %v", shape, err)
		}
		if err := l.complete(0, br); !errors.Is(err, ErrBatchShape) {
			t.Fatalf("a result of %s completed a 10-wide batch over a sequence of one setting: %v", shape, err)
		}
	}
	if l.Batch(0) != nil || l.outstanding() != 2 {
		t.Fatal("a refused result must leave its batch outstanding, free to run again")
	}

	// An undetected fault's detection is not read, and the last node is
	// inside the network.
	ok := batchWith(10, 2)
	ok.Detections[5] = core.Detection{Pattern: 1 << 20, Setting: -1, Output: 1 << 20}
	ok.Records[7] = map[netlist.NodeID]logic.Value{netlist.NodeID(nw.NumNodes() - 1): logic.X}
	l.start(1)
	if err := errors.Join(l.complete(0, ok), l.complete(1, batchWith(5, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Finish(goodWork); err != nil {
		t.Fatal(err)
	}
}

// overlapMix is a 4×4 RAM universe in which faults share sites: every
// stuck-at fault, the bit-line bridges, a stuck-closed fault on each bridge
// transistor (materialization-equivalent to the bridge) and a quarter of
// the stuck-at faults again, shuffled by seed.
func overlapMix(seed int64) (*netlist.Network, []fault.Fault) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	fs := fault.NodeStuckFaults(m.Net, fault.Options{})
	fs = append(fs, fs[:len(fs)/4]...)
	fs = append(fs, fault.BridgeFaults(m.BitlineShorts)...)
	for _, t := range m.BitlineShorts {
		fs = append(fs, fault.Fault{Kind: fault.TransStuckClosed, Trans: t})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return m.Net, fs
}

// windows returns the faults of each batch batchOrder cuts, each window
// sorted by content: the batch composition, independent of lane order.
func windows(nw *netlist.Network, faults []fault.Fault, batchSize int) [][]fault.Fault {
	order := batchOrder(nw, faults, batchSize)
	var out [][]fault.Fault
	for lo := 0; lo < len(order); lo += batchSize {
		var w []fault.Fault
		for _, fi := range order[lo:min(lo+batchSize, len(order))] {
			w = append(w, faults[fi])
		}
		slices.SortFunc(w, func(a, b fault.Fault) int {
			return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Trans, b.Trans))
		})
		out = append(out, w)
	}
	return out
}

// checkBatchOrder holds one batch order to its contract: a permutation,
// ascending universe order within each window, and windows that follow
// each other in anchor-site order.
func checkBatchOrder(t *testing.T, nw *netlist.Network, faults []fault.Fault, batchSize int, order []int32) {
	t.Helper()
	if len(order) != len(faults) {
		t.Fatalf("order has %d entries for %d faults", len(order), len(faults))
	}
	seen := make([]bool, len(faults))
	for _, fi := range order {
		if fi < 0 || int(fi) >= len(faults) || seen[fi] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[fi] = true
	}
	lastMax := netlist.NodeID(-1)
	for lo := 0; lo < len(order); lo += batchSize {
		w := order[lo:min(lo+batchSize, len(order))]
		if !slices.IsSorted(w) {
			t.Fatalf("window at %d is not in universe order: %v", lo, w)
		}
		first, last := anchorSite(nw, &faults[w[0]]), anchorSite(nw, &faults[w[0]])
		for _, fi := range w {
			a := anchorSite(nw, &faults[fi])
			first, last = min(first, a), max(last, a)
		}
		if first < lastMax {
			t.Fatalf("a window's sites start at node %d, below the previous window's last, %d", first, lastMax)
		}
		lastMax = last
	}
}

// TestBatchOrder: the batch order is a permutation, cut from the universe
// in site order; two shuffles of one universe give the same batch
// composition; a universe that fits one batch keeps its order; and
// duplicate faults, and a bridge with the stuck-closed fault on the same
// transistor, share a batch unless a window edge splits them.
func TestBatchOrder(t *testing.T) {
	const batchSize = 16
	nw, faults := overlapMix(1)
	order := batchOrder(nw, faults, batchSize)
	checkBatchOrder(t, nw, faults, batchSize, order)

	_, again := overlapMix(2)
	if slices.Equal(faults, again) {
		t.Fatal("the two shuffles agree; the test is vacuous")
	}
	a, b := windows(nw, faults, batchSize), windows(nw, again, batchSize)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("batch %d holds different faults for two shuffles of one universe:\n%v\n%v", i, a[i], b[i])
		}
	}

	for _, bs := range []int{len(faults), len(faults) + 5} {
		for p, fi := range batchOrder(nw, faults, bs) {
			if int(fi) != p {
				t.Fatalf("batch size %d: a one-batch universe is reordered (position %d holds fault %d)", bs, p, fi)
			}
		}
	}

	// Pairs that should share a batch: equal faults, and the bridge and the
	// stuck-closed fault on one transistor.
	batch := make([]int, len(faults))
	for p, fi := range order {
		batch[fi] = p / batchSize
	}
	together, split := 0, 0
	for i := range faults {
		for j := i + 1; j < len(faults); j++ {
			fi, fj := faults[i], faults[j]
			pair := fi == fj || fi.Trans == fj.Trans && min(fi.Kind, fj.Kind) == fault.TransStuckClosed && max(fi.Kind, fj.Kind) == fault.Bridge
			switch {
			case !pair:
			case batch[i] == batch[j]:
				together++
			case max(batch[i], batch[j])-min(batch[i], batch[j]) == 1:
				split++ // the window edge between two neighbouring batches runs between them
			default:
				t.Fatalf("%s and %s sit in batches %d and %d", fi.Describe(nw), fj.Describe(nw), batch[i], batch[j])
			}
		}
	}
	if together == 0 || split > together/4 {
		t.Fatalf("%d pairs share a batch, %d are split by a window edge", together, split)
	}
}

// FuzzBatchOrder holds batchOrder to its contract over arbitrary fault
// lists (three bytes a fault: kind, node, transistor) and batch sizes: the
// order is a permutation cut in site order with windows in universe order,
// the reversed list has the same batch composition, and one window is the
// identity.
func FuzzBatchOrder(f *testing.F) {
	m := ram.New(ram.Config{Rows: 2, Cols: 2})
	nw := m.Net
	f.Add([]byte{0, 5, 0, 1, 5, 0, 5, 0, 3, 4, 0, 3, 0, 5, 0}, uint8(1))
	f.Add([]byte{3, 9, 1, 6, 2, 7, 1, 1, 1, 2, 8, 8}, uint8(0))
	f.Add([]byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, bs uint8) {
		faults := make([]fault.Fault, len(data)/3)
		for i := range faults {
			b := data[3*i:]
			faults[i] = fault.Fault{
				Kind:  fault.Kind(b[0] % 7),
				Node:  netlist.NodeID(int(b[1]) % nw.NumNodes()),
				Trans: netlist.TransID(int(b[2]) % nw.NumTransistors()),
			}
		}
		batchSize := 1 + int(bs)%8
		order := batchOrder(nw, faults, batchSize)
		checkBatchOrder(t, nw, faults, batchSize, order)

		reversed := slices.Clone(faults)
		slices.Reverse(reversed)
		a, b := windows(nw, faults, batchSize), windows(nw, reversed, batchSize)
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("batch %d holds different faults once the list is reversed", i)
			}
		}
		if len(faults) <= batchSize {
			for p, fi := range order {
				if int(fi) != p {
					t.Fatalf("a one-batch universe is reordered: %v", order)
				}
			}
		}
	})
}
