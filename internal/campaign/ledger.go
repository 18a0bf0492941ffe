// The campaign ledger: batch composition and windows, the coverage count,
// the early-stop decision, the ruling on a caller's cancel, and the final
// verdict and batch accounting — written once, and driven by Execute for
// every batch wherever it runs. The rules themselves are stated in doc.go
// ("Early stop and cancellation", "Batch composition").
package campaign

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// Ledger is the bookkeeping of one campaign: which faults share a batch
// (Faults, Window), the coverage count, the early-stop decision, the
// ruling on a caller's cancel, and how the campaign ended. Execute drives
// it, for every batch wherever it runs: a batch starts, runs under the
// campaign's run context, completes or fails the campaign, and is logged
// to the checkpoint. A scheduler supplies only where a batch runs
// (Options.Remote): it feeds what the batch reports to Report, and runs
// a result through Check so that it can retry a refused one. A caller of
// Execute ends with Finish, or with Verdict and Batch. All methods are
// safe for concurrent use.
type Ledger struct {
	ctx       context.Context // the caller's
	run       context.Context // what batches execute under
	cancelRun context.CancelFunc
	unhook    func() bool

	seq                     *switchsim.Sequence // every batch result has one row per setting and pattern of it
	nodes                   int                 // every node a batch result names is below it
	nf, batchSize, nBatches int
	target                  int // detections that stop the campaign; 0: no target
	progress                func(ProgressEvent)

	// order[p] is the universe index of the fault at batch-order position
	// p (batchOrder); faults is the universe in that order, so batch i
	// simulates faults[lo:hi] for its Window.
	order  []int32
	faults []fault.Fault

	// mu serializes counter updates and event delivery together: that is
	// what makes Detected monotonic across delivered events, and what lets
	// a cancel issued from inside the Progress callback be ruled on after
	// the event that provoked it was accounted.
	mu      sync.Mutex
	results []*core.BatchResult
	// sums holds the folded row tables of the batches that have arrived;
	// Finish assembles from it. A result keeps its rows until they are
	// folded, and the fold takes them (takeRows), so rows are in a result
	// or in the sums, never both, and each is read once.
	sums rowSums
	// seen[i] is the highest cumulative detection count batch i has
	// reported, detected their sum. Folding with max absorbs duplicate and
	// stale reports, and a retried shard restarting its count at zero:
	// none of them rolls coverage back.
	seen     []int
	detected int

	done, resumed, inflight int
	reached, aborted        bool
	err                     error
}

// NewLedger opens the ledger of a campaign over the fault universe faults
// of nw under the test sequence seq, and cuts its batches (batchOrder).
// batchSize is the number of faults per batch; 0 splits the universe
// evenly into parts batches. coverageTarget (0: none) and progress (nil:
// none) are Options.CoverageTarget and Options.Progress; ctx is the
// caller's.
func NewLedger(ctx context.Context, nw *netlist.Network, faults []fault.Fault, seq *switchsim.Sequence, batchSize, parts int, coverageTarget float64, progress func(ProgressEvent)) *Ledger {
	if ctx == nil {
		ctx = context.Background()
	}
	nf := len(faults)
	if batchSize <= 0 {
		batchSize = max((nf+parts-1)/max(parts, 1), 1)
	}
	n := (nf + batchSize - 1) / batchSize
	l := &Ledger{
		ctx: ctx, seq: seq, nodes: nw.NumNodes(), nf: nf, batchSize: batchSize, nBatches: n, progress: progress,
		order:   batchOrder(nw, faults, batchSize),
		faults:  make([]fault.Fault, nf),
		results: make([]*core.BatchResult, n),
		sums:    rowSums{seq: seq},
		seen:    make([]int, n),
	}
	for p, fi := range l.order {
		l.faults[p] = faults[fi]
	}
	if coverageTarget > 0 && nf > 0 {
		l.target = int(math.Ceil(coverageTarget * float64(nf)))
	}
	// Batches run under a context detached from the caller's: a cancel
	// reaches them only through abort, which rules on it under mu.
	l.run, l.cancelRun = context.WithCancel(context.WithoutCancel(ctx))
	l.unhook = context.AfterFunc(ctx, l.abort)
	return l
}

// batchOrder returns the universe indices of faults in batch order: batch
// i is the i-th window of batchSize positions. The universe is sorted by
// each fault's anchor site — the node of a node fault, the lower channel
// terminal of a transistor fault — with ties broken on (kind, node,
// transistor, universe index), so faults that share a site share a batch
// (and its per-setting replay index) unless a window edge splits them,
// and which faults share a batch does not depend on the caller's order.
// Within a window the faults keep ascending universe order, so a universe
// that fits one batch is the identity. See doc.go, "Batch composition".
func batchOrder(nw *netlist.Network, faults []fault.Fault, batchSize int) []int32 {
	order := make([]int32, len(faults))
	for i := range order {
		order[i] = int32(i)
	}
	if len(faults) <= batchSize {
		return order
	}
	slices.SortFunc(order, func(a, b int32) int {
		fa, fb := &faults[a], &faults[b]
		return cmp.Or(
			cmp.Compare(anchorSite(nw, fa), anchorSite(nw, fb)),
			cmp.Compare(fa.Kind, fb.Kind),
			cmp.Compare(fa.Node, fb.Node),
			cmp.Compare(fa.Trans, fb.Trans),
			cmp.Compare(a, b))
	})
	for lo := 0; lo < len(order); lo += batchSize {
		slices.Sort(order[lo:min(lo+batchSize, len(order))])
	}
	return order
}

// anchorSite is batchOrder's key: the node of a node fault, the lower
// channel terminal of a transistor fault.
func anchorSite(nw *netlist.Network, f *fault.Fault) netlist.NodeID {
	if f.Kind.IsNodeFault() {
		return f.Node
	}
	tr := nw.Transistor(f.Trans)
	return min(tr.Source, tr.Drain)
}

// Batches returns the number of batches the universe splits into.
func (l *Ledger) Batches() int { return l.nBatches }

// BatchSize returns the number of faults per batch (the last may be short).
func (l *Ledger) BatchSize() int { return l.batchSize }

// Faults returns the universe in batch order: batch i simulates
// Faults()[lo:hi] for (lo, hi) = Window(i). The caller must not modify it.
func (l *Ledger) Faults() []fault.Fault { return l.faults }

// Window returns batch i's range [lo, hi) of batch-order positions: the
// i-th window of Faults, not of the caller's universe.
func (l *Ledger) Window(i int) (lo, hi int) {
	lo = i * l.batchSize
	return lo, min(lo+l.batchSize, l.nf)
}

// outstanding returns how many batches still have to complete.
func (l *Ledger) outstanding() int {
	if l.reached {
		return l.inflight
	}
	return l.nBatches - l.done
}

// abort is the ruling on the caller's cancel: it stops the run only
// while the target is unmet.
func (l *Ledger) abort() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.reached && !l.aborted {
		l.aborted = true
		l.cancelRun()
	}
}

// start reports whether batch i may run now: true while the campaign is
// live, false once the batch is resumed, the target is reached, or the
// campaign is aborted or failed. Execute asks once per batch; a scheduler
// that retries a batch does so inside one start (Options.Remote).
func (l *Ledger) start(i int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.aborted || l.err != nil || l.results[i] != nil || l.reached {
		return false
	}
	l.inflight++
	return true
}

// fold raises batch i's cumulative detection count to cum and decides
// early stop: the counter Progress shows is the counter that stops the
// campaign. Called under mu, after any change to done or inflight.
func (l *Ledger) fold(i, cum int) {
	if cum > l.seen[i] {
		l.detected += cum - l.seen[i]
		l.seen[i] = cum
	}
	if l.target > 0 && l.detected >= l.target && !l.aborted {
		l.reached = true
	}
}

// deliver rewrites a batch-relative report into the campaign-wide event
// and hands it to Progress. Called under mu.
func (l *Ledger) deliver(i int, ev ProgressEvent) {
	if l.progress == nil {
		return
	}
	if len(ev.NewlyDetected) > 0 {
		// A position outside the window (a worker's stream is input, not
		// trusted) names no fault of this batch and is dropped.
		lo, hi := l.Window(i)
		newly := make([]int, 0, len(ev.NewlyDetected))
		for _, j := range ev.NewlyDetected {
			if j >= 0 && j < hi-lo {
				newly = append(newly, int(l.order[lo+j]))
			}
		}
		ev.NewlyDetected = newly
	}
	ev.Batch, ev.Batches, ev.BatchesDone = i, l.nBatches, l.done
	ev.Detected, ev.NumFaults = l.detected, l.nf
	l.progress(ev)
}

// Report folds one report of batch i into the campaign-wide view and
// delivers it. On entry ev is batch-relative: Detected is the batch's own
// cumulative detection count (0 when the report carries none) and
// NewlyDetected indexes the batch's faults. Reports may arrive
// duplicated, late, or from a rerun of the batch.
func (l *Ledger) Report(i int, ev ProgressEvent) {
	if l.progress == nil && l.target == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fold(i, ev.Detected)
	l.deliver(i, ev)
}

// observer returns the core.Options.OnObserve hook for batch i, or nil
// when neither Progress nor a coverage target needs per-setting reports.
func (l *Ledger) observer(i int) func(core.BatchProgress) {
	if l.progress == nil && l.target == 0 {
		return nil
	}
	return func(bp core.BatchProgress) {
		l.Report(i, ProgressEvent{
			Pattern:       bp.Pattern,
			Setting:       bp.Setting,
			LiveFaults:    bp.LiveFaults,
			NewlyDetected: bp.Detected,
			Detected:      bp.DetectedTotal,
		})
	}
}

// ErrBatchShape reports a batch result that does not describe the batch it
// was handed in for: a checkpoint line or a worker's result line of the
// wrong width or length, naming a setting outside the sequence, a node
// outside the network or a logic value outside {0, 1, X}, or a checkpoint
// line for no batch still to run. Merging one would yield a quietly
// different Result, or one a caller cannot print, so the ledger refuses
// it where it arrives.
var ErrBatchShape = errors.New("batch result has the wrong shape")

// Check verifies br covers exactly batch i's window of the universe, with
// one per-setting and one per-pattern row for each of the sequence's, that
// every detection names a setting of the sequence, and that every
// detection and record names a node of the network and valid logic
// values. It refuses any other result with ErrBatchShape.
func (l *Ledger) Check(i int, br *core.BatchResult) error {
	lo, hi := l.Window(i)
	if w := hi - lo; br.NumFaults != w || len(br.Detected) != w || len(br.Detections) != w ||
		len(br.Oscillated) != w || len(br.Records) != w {
		return fmt.Errorf("campaign: batch %d: %w: %d faults (columns of %d, %d, %d and %d), the window holds %d",
			i, ErrBatchShape, br.NumFaults, len(br.Detected), len(br.Detections), len(br.Oscillated), len(br.Records), w)
	}
	if len(br.PerSetting) != l.seq.NumSettings() || len(br.PerPattern) != len(l.seq.Patterns) {
		return fmt.Errorf("campaign: batch %d: %w: %d settings in %d patterns, the sequence has %d in %d",
			i, ErrBatchShape, len(br.PerSetting), len(br.PerPattern), l.seq.NumSettings(), len(l.seq.Patterns))
	}
	for j, recs := range br.Records {
		d := br.Detections[j]
		ok := !br.Detected[j] || d.Output >= 0 && int(d.Output) < l.nodes && d.Good.Valid() && d.Faulty.Valid() &&
			d.Pattern >= 0 && d.Pattern < len(l.seq.Patterns) && d.Setting >= 0 && d.Setting < len(l.seq.Patterns[d.Pattern].Settings)
		for n, v := range recs { //fmossim:nondeterminism-ok a conjunction over the records: the order cannot change ok
			ok = ok && n >= 0 && int(n) < l.nodes && v.Valid()
		}
		if !ok {
			return fmt.Errorf("campaign: batch %d: %w: fault %d names a setting outside the sequence, a node outside the network's %d or a value outside {0, 1, X}", i, ErrBatchShape, j, l.nodes)
		}
	}
	return nil
}

// resume pre-counts batch i as completed by an earlier run (checkpoint).
// An index outside the campaign, or of a batch already resumed, is refused
// with ErrBatchShape.
func (l *Ledger) resume(i int, br *core.BatchResult) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= l.nBatches || l.results[i] != nil {
		return fmt.Errorf("campaign: batch %d: %w: not one of the %d batches still to run", i, ErrBatchShape, l.nBatches)
	}
	if err := l.Check(i, br); err != nil {
		return err
	}
	l.results[i] = br
	l.takeRows(i) // the log holds them; no slot refills them
	l.done++
	l.resumed++
	l.fold(i, br.DetectedCount())
	return nil
}

// complete records batch i's result and delivers its BatchDone event. A
// result that fails Check is refused and the batch stays outstanding.
func (l *Ledger) complete(i int, br *core.BatchResult) error {
	if err := l.Check(i, br); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.results[i] = br
	l.done++
	l.inflight--
	l.fold(i, br.DetectedCount())
	ev := ProgressEvent{BatchDone: true}
	if n := len(br.PerPattern); n > 0 {
		ev.LiveFaults = br.PerPattern[n-1].LiveAfter
	}
	l.deliver(i, ev)
	return nil
}

// takeRows folds batch i's row tables into the sums and takes them off
// its result, returning them. Called under mu, once per result: the rows
// of a resumed batch as it is resumed, of a run batch when the slot that
// ran it starts its next batch (release) or at Finish, whichever comes
// first.
func (l *Ledger) takeRows(i int) ([]core.SettingStats, []core.BatchPattern) {
	br := l.results[i]
	l.sums.add(br)
	ps, pp := br.PerSetting, br.PerPattern
	br.PerSetting, br.PerPattern = nil, nil
	return ps, pp
}

// release folds batch i's row tables and hands them back for the next
// batch its slot runs. Execute calls it when that slot starts its next
// batch: by then the batch has completed and the checkpoint has logged
// it, so nothing else reads its rows.
func (l *Ledger) release(i int) ([]core.SettingStats, []core.BatchPattern) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.takeRows(i)
}

// fail records the campaign's first error and stops the run.
func (l *Ledger) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	l.cancelRun()
}

// close detaches the ledger from the caller's context and releases the
// run context. Idempotent.
func (l *Ledger) close() {
	l.unhook()
	l.cancelRun()
}

// Verdict closes the ledger after Execute has drained and reports
// how the campaign ended: the caller's cancel if it aborted the run with
// batches outstanding, else the first failure, else nil — the completed
// batches stand.
func (l *Ledger) Verdict() error {
	l.close()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch n := l.outstanding(); {
	case l.aborted && n > 0:
		return fmt.Errorf("campaign: cancelled: %w", l.ctx.Err())
	case l.err != nil:
		return l.err
	case n > 0:
		return fmt.Errorf("campaign: %d of %d batches incomplete", n, l.nBatches)
	}
	return nil
}

// Batch returns batch i's raw result, nil unless it completed. A shard
// job hands it to its coordinator as is, without paying for a merge.
// Its row tables (PerSetting, PerPattern) are gone once the ledger has
// folded them: a resumed batch's as it is resumed, a run batch's once the
// shard slot that ran it has started another batch, or Finish has run.
// The last batch each slot ran keeps its rows until Finish, so a
// one-batch campaign's Batch(0) after Verdict is the batch's whole
// result.
func (l *Ledger) Batch(i int) *core.BatchResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.results[i]
}

// Finish is Verdict followed, when it is nil, by the merge of every
// completed batch — it folds the rows the last batch of each slot still
// holds and assembles from the row sums and the results' per-fault
// columns — the scatter of its per-fault outcomes back to universe order,
// and the batch accounting; batches that never ran merge as skipped.
// Every merged batch passed the shape check on arrival.
// goodWork(si) is the good-circuit work of input setting si, settings
// counted from 0 in sequence order: Recording.SettingWork of the
// recording the batches replayed, or the column a caller kept of it.
func (l *Ledger) Finish(goodWork func(si int) int64) (*Result, error) {
	if err := l.Verdict(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, br := range l.results {
		if br != nil && (br.PerSetting != nil || br.PerPattern != nil) {
			l.takeRows(i) // the last batch a slot ran
		}
	}
	res := l.sums.merge(goodWork, l.nf, l.batchSize, l.results)
	perFault := make([]FaultOutcome, l.nf)
	for p, fi := range l.order {
		perFault[fi] = res.PerFault[p]
	}
	res.PerFault = perFault
	res.Batches = l.nBatches
	res.BatchesResumed = l.resumed
	res.BatchesRun = l.done - l.resumed
	res.BatchesSkipped = l.nBatches - l.done
	return res, nil
}
