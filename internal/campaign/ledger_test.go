package campaign

import (
	"context"
	"errors"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// batchWith fabricates a completed batch result of n faults, the first
// det of them detected.
func batchWith(n, det int) *core.BatchResult {
	br := &core.BatchResult{
		NumFaults:  n,
		Detected:   make([]bool, n),
		Detections: make([]core.Detection, n),
		Oscillated: make([]bool, n),
		Records:    make([]map[netlist.NodeID]logic.Value, n),
	}
	for i := 0; i < det; i++ {
		br.Detected[i] = true
	}
	return br
}

// TestLedgerFold feeds the ledger hand-made reports: duplicate, stale and
// restarted-from-zero per-batch counts never lower Detected; a resumed
// batch is pre-counted; NewlyDetected is offset to universe indices; the
// final event's Detected is the merged result's.
func TestLedgerFold(t *testing.T) {
	var events []ProgressEvent
	l := NewLedger(context.Background(), 40, 10, 0, 0, func(ev ProgressEvent) {
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
	if l.Start(3) {
		t.Fatal("a resumed batch may not start")
	}

	for i := 0; i < 3; i++ {
		if !l.Start(i) {
			t.Fatalf("batch %d refused", i)
		}
	}
	l.Report(1, ProgressEvent{Detected: 3, NewlyDetected: []int{0, 7}})
	if ev := last(); ev.Detected != 7 || ev.BatchesDone != 1 || ev.Batch != 1 ||
		ev.NumFaults != 40 || ev.Batches != 4 || ev.NewlyDetected[0] != 10 || ev.NewlyDetected[1] != 17 {
		t.Fatalf("first folded event: %+v", ev)
	}
	for _, cum := range []int{3, 1, 0} { // duplicate, stale, a rerun restarting at zero
		l.Report(1, ProgressEvent{Detected: cum})
		if ev := last(); ev.Detected != 7 {
			t.Fatalf("report of %d moved Detected to %d", cum, ev.Detected)
		}
	}
	if !l.Start(1) {
		t.Fatal("a started batch must be allowed to run again")
	}
	l.Report(1, ProgressEvent{Detected: 2}) // the rerun, still below its first attempt
	l.Report(0, ProgressEvent{Detected: 5})
	if ev := last(); ev.Detected != 12 {
		t.Fatalf("Detected %d after batch 0 reported 5, want 12", ev.Detected)
	}

	select {
	case <-l.Idle():
		t.Fatal("idle with three batches outstanding")
	default:
	}
	l.Complete(0, batchWith(10, 6))
	l.Complete(1, batchWith(10, 3))
	l.Complete(2, batchWith(10, 0))
	if ev := last(); !ev.BatchDone || ev.BatchesDone != 4 || ev.Detected != 13 {
		t.Fatalf("last completion event: %+v", ev)
	}
	select {
	case <-l.Idle():
	default:
		t.Fatal("not idle with every batch complete")
	}

	seq := &switchsim.Sequence{Name: "none"}
	res, err := l.Finish(&switchsim.Recording{}, seq)
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
// context stays live, started batches may finish (and rerun), unstarted
// ones are refused and merge as skipped. A cancel before the target
// aborts the run, and detections reported afterwards do not revive it.
func TestLedgerCancelRule(t *testing.T) {
	seq := &switchsim.Sequence{Name: "none"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var l *Ledger
	l = NewLedger(ctx, 40, 10, 0, 0.25, func(ev ProgressEvent) {
		if ev.Coverage() >= 0.25 {
			if !l.reached {
				t.Error("target shown to the callback before the ledger ruled it reached")
			}
			cancel()
		}
	})
	if !l.Start(0) || !l.Start(1) {
		t.Fatal("live campaign refused a batch")
	}
	l.Report(0, ProgressEvent{Detected: 9})
	l.Report(1, ProgressEvent{Detected: 1}) // 10 of 40: the target
	l.abort()                               // what context.AfterFunc runs on the cancel
	if err := l.Context().Err(); err != nil {
		t.Fatalf("run context after a cancel at the target: %v", err)
	}
	if l.Start(2) {
		t.Fatal("an unstarted batch started after the target")
	}
	if !l.Start(1) {
		t.Fatal("a started batch must be allowed to rerun after the target")
	}
	if n := l.outstanding(); n != 2 {
		t.Fatalf("%d outstanding after the target, want the 2 in flight", n)
	}
	l.Complete(0, batchWith(10, 9))
	l.Complete(1, batchWith(10, 2))
	res, err := l.Finish(&switchsim.Recording{}, seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchesRun != 2 || res.BatchesSkipped != 2 || !res.PerFault[20].Skipped || res.PerFault[19].Skipped {
		t.Fatalf("early-stopped accounting: %d run, %d skipped", res.BatchesRun, res.BatchesSkipped)
	}

	ctx, cancel = context.WithCancel(context.Background())
	l = NewLedger(ctx, 40, 10, 0, 0.25, nil)
	l.Start(0)
	cancel()
	<-l.Context().Done()
	if l.Start(1) {
		t.Fatal("a batch started after the caller's cancel")
	}
	l.Report(0, ProgressEvent{Detected: 10})
	if l.reached {
		t.Fatal("an aborted campaign reached its target")
	}
	if _, err := l.Finish(&switchsim.Recording{}, seq); !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted campaign returned %v, want context.Canceled", err)
	}
}

// TestLedgerRefusesWrongShape: a batch result that is not as wide as its
// window is refused where it arrives — the batch stays outstanding and may
// run again — and one whose tables are not as long as the sequence fails
// the merge; neither is ever truncated into a Result.
func TestLedgerRefusesWrongShape(t *testing.T) {
	seq := &switchsim.Sequence{Name: "none"}
	l := NewLedger(context.Background(), 15, 10, 0, 0, nil)
	if err := l.resume(1, batchWith(10, 0)); !errors.Is(err, ErrBatchShape) {
		t.Fatalf("a 10-wide result resumed into the 5-wide last window: %v", err)
	}
	short := batchWith(10, 2)
	short.Detected = short.Detected[:9]
	l.Start(0)
	for _, br := range []*core.BatchResult{batchWith(3, 1), short} {
		if err := l.Complete(0, br); !errors.Is(err, ErrBatchShape) {
			t.Fatalf("a result of %d faults (%d flags) completed a 10-wide batch: %v", br.NumFaults, len(br.Detected), err)
		}
	}
	if l.Batch(0) != nil || !l.Start(0) || l.outstanding() != 2 {
		t.Fatal("a refused result must leave its batch outstanding and free to run again")
	}

	long := batchWith(10, 2)
	long.PerSetting = make([]core.SettingStats, 1)
	l.Start(1)
	if err := errors.Join(l.Complete(0, long), l.Complete(1, batchWith(5, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Finish(&switchsim.Recording{}, seq); !errors.Is(err, ErrBatchShape) {
		t.Fatalf("a batch with one setting merged over a sequence with none: %v", err)
	}
}
