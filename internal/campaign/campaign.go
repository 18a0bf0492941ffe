// Campaign execution: sharding, the shard pool, progress fan-out, and
// the deterministic merge. Package documentation lives in doc.go.
package campaign

import (
	"context"
	"fmt"
	"runtime"

	"fmossim/internal/core"
	"fmossim/internal/fanout"
	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// Options configures a fault campaign.
type Options struct {
	// Sim carries the per-batch simulator options (Observe is required;
	// Drop and MaxRounds as in core.Options; every batch is trimmed, so
	// Sim.Trim is read by nothing). Sim.Workers is the
	// per-batch worker pool; when 0 it defaults to 1 if the campaign runs
	// more than one shard (so shards × workers does not oversubscribe)
	// and to GOMAXPROCS otherwise.
	Sim core.Options

	// BatchSize is the number of faults per batch. 0 derives it from
	// Shards: the universe is split evenly, one batch per shard.
	BatchSize int

	// Shards is the number of batches executed concurrently. 0 selects
	// runtime.GOMAXPROCS(0), capped by the batch count.
	Shards int

	// CoverageTarget, in (0,1], stops the campaign early once the detected
	// fraction of the whole universe reaches it; see the package
	// documentation, "Early stop and cancellation".
	CoverageTarget float64

	// Recording, when non-nil, is a pre-captured good trajectory (see
	// core.Record / Recording.Encode): the campaign skips good-circuit
	// simulation entirely. When nil, the trajectory is recorded first —
	// unless Remote runs the batches: then the campaign neither records
	// nor reads a recording (the batches replay one elsewhere), and the
	// caller hands Ledger.Finish the good work.
	Recording *switchsim.Recording

	// Tables, when non-nil, is a pre-built read-only table set over the
	// campaign's network, shared by all batches (and, in a long-running
	// service, across campaigns over the same circuit), and by the
	// capture of the good trajectory when Recording is nil. When nil,
	// tables are built per Run, unless Remote runs the batches. Must have
	// been built from the same Network.
	Tables *switchsim.Tables

	// Remote, when non-nil, runs the batches somewhere other than this
	// process (internal/distrib). Execute calls it once, after the ledger
	// is open and the checkpoint resumed, and runs every batch through the
	// function it returns instead of a local slot batch: slot is the
	// shard-pool goroutine running batch i (in [0, Shards)), ctx the
	// context batches execute under, and into a new result holding only
	// the row tables the slot's previous batch released (Ledger.release;
	// none before its first), for the batch's result to be decoded into
	// (core.BatchResult.UnmarshalBinary fills them). The function reports
	// the batch's progress to Ledger.Report, retries it as it sees fit, and
	// returns a result that passes Ledger.Check — into, or any other — or
	// the error that fails the campaign. A Remote campaign goes through
	// Execute, not Run: its merge needs the good work only the caller
	// holds.
	Remote func(l *Ledger) func(ctx context.Context, slot, i int, into *core.BatchResult) (*core.BatchResult, error)

	// CheckpointPath, when non-empty, makes the campaign resumable: the
	// checkpoint log is loaded if present (completed batches are not
	// re-simulated) and one line is appended to it per batch completion.
	CheckpointPath string

	// Progress, when non-nil, receives one ProgressEvent per simulated
	// input setting of every batch plus one batch-completion event per
	// batch. Events originate on the shard goroutines but are delivered
	// one at a time, with the counters defined in the package
	// documentation ("Early stop and cancellation"): the callback need
	// not be safe for concurrent use, but it must be fast — while it
	// runs, no other shard can deliver progress. Progress never changes
	// simulation results and is not part of the checkpoint fingerprint.
	Progress func(ProgressEvent)
}

// ProgressEvent is one campaign progress report delivered to
// Options.Progress, either after a batch simulated one input setting or
// (BatchDone) when a batch finished. The campaign-wide Detected counter
// is monotonically non-decreasing across the events any single campaign
// emits, so a consumer can stream coverage as it converges; what it
// counts is defined in the package documentation ("Early stop and
// cancellation").
type ProgressEvent struct {
	// Batch is the reporting batch's index; Pattern and Setting locate
	// the setting it just simulated.
	Batch   int `json:"batch"`
	Pattern int `json:"pattern"`
	Setting int `json:"setting"`
	// LiveFaults is the reporting batch's count of undropped faults.
	LiveFaults int `json:"live_faults"`
	// NewlyDetected lists the universe fault indices first detected at
	// this setting's observation (nil when none).
	NewlyDetected []int `json:"newly_detected,omitempty"`
	// Detected is the campaign-wide cumulative detection count, including
	// batches resumed from a checkpoint; NumFaults is the universe size.
	Detected  int `json:"detected"`
	NumFaults int `json:"num_faults"`
	// BatchesDone counts completed batches (resumed ones included);
	// Batches is the total. BatchDone marks the per-batch completion
	// event.
	BatchesDone int  `json:"batches_done"`
	Batches     int  `json:"batches"`
	BatchDone   bool `json:"batch_done,omitempty"`
}

// Coverage returns the event's campaign-wide detected fraction.
func (e ProgressEvent) Coverage() float64 { return core.Coverage(e.Detected, e.NumFaults) }

// FaultOutcome is the merged result for one fault of the universe.
type FaultOutcome struct {
	// Detected reports the fault was detected; Detection locates the
	// first detection (zero when !Detected).
	Detected  bool           `json:"detected"`
	Detection core.Detection `json:"detection"`
	// Oscillated reports the faulty circuit ever hit the round limit.
	Oscillated bool `json:"oscillated"`
	// Records is the fault's final divergence from the good circuit
	// (nil when none, or when the fault's batch was skipped).
	Records map[netlist.NodeID]logic.Value `json:"records,omitempty"`
	// Skipped reports the fault's batch was never simulated (early stop).
	Skipped bool `json:"skipped,omitempty"`
}

// Result is a campaign's merged outcome.
type Result struct {
	// Run is the merged aggregate in core.Result form: bit-identical to a
	// monolithic run when no batch was skipped.
	Run core.Result
	// PerFault holds one outcome per fault, in universe order.
	PerFault []FaultOutcome

	// Batches is the total batch count; BatchesRun were simulated this
	// call, BatchesResumed restored from the checkpoint, BatchesSkipped
	// never started (early stop).
	Batches        int
	BatchesRun     int
	BatchesResumed int
	BatchesSkipped int
}

// Detected reports whether fault fi was detected, with details.
func (r *Result) Detected(fi int) (core.Detection, bool) {
	o := &r.PerFault[fi]
	return o.Detection, o.Detected
}

// Coverage returns the detected fraction of the fault universe.
func (r *Result) Coverage() float64 { return r.Run.Coverage() }

// Run executes a fault campaign over nw: record (or reuse) the good
// trajectory, shard faults into batches, replay the batches across the
// shard pool, and merge.
//
// Cancelling ctx before the coverage target is reached stops the campaign
// cooperatively: no new batches start, in-flight batches abort between
// settings (well under a second on any realistic workload), and Run
// returns ctx's error; see the package documentation ("Early stop and
// cancellation") for the full rule. Batches checkpointed before the
// cancellation remain resumable. A nil ctx never cancels.
func Run(ctx context.Context, nw *netlist.Network, faults []fault.Fault, seq *switchsim.Sequence, opts Options) (*Result, error) {
	if opts.Remote != nil {
		return nil, fmt.Errorf("campaign: a Remote campaign runs through Execute and Ledger.Finish")
	}
	l, rec, err := Execute(ctx, nw, faults, seq, opts, nil)
	if err != nil {
		return nil, err
	}
	return l.Finish(rec.SettingWork)
}

// Execute is Run without the merge: it replays the batches — here, or
// through Options.Remote — and returns the drained ledger with the
// recording they ran against (nil when Remote ran them: this process
// then neither records nor holds one). It is the one loop that drives a
// campaign's batches: each starts, runs, completes or fails the campaign,
// and is appended to the checkpoint log, in that order. The caller ends
// with Ledger.Finish — which is Run — or, when it only forwards raw
// batches, with Ledger.Verdict and Ledger.Batch.
//
// slots are the batches of the shard slots: slot s re-arms slots[s]
// (core.FaultBatch.Reset) for every batch it runs, and a nil or missing
// entry is built on the slot's first batch and, when slots has room for
// it, stored back. So a caller that keeps the slice — a server runner
// between jobs — keeps each slot's batch, with its row tables, from one
// campaign to the next; nil slots make Execute their only owner. Every
// batch in slots must have been built over the campaign's tables, and a
// caller hands the slots to its next campaign only once this one has
// ended (Finish, or Verdict and Batch): until then they are this
// campaign's. A Remote campaign runs no slot batch and ignores slots.
func Execute(ctx context.Context, nw *netlist.Network, faults []fault.Fault, seq *switchsim.Sequence, opts Options, slots []*core.FaultBatch) (l *Ledger, rec *switchsim.Recording, err error) {
	tab := opts.Tables
	if tab != nil && tab.Net != nw {
		return nil, nil, fmt.Errorf("campaign: Options.Tables was built over a different network")
	}
	if opts.Remote == nil {
		if tab == nil {
			tab = switchsim.NewTables(nw)
		}
		rec = opts.Recording
		if rec == nil {
			rec = core.RecordTables(tab, seq, opts.Sim)
		}
		if err := rec.Validate(nw, seq.NumSettings()); err != nil {
			return nil, nil, err
		}
	}

	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	l = NewLedger(ctx, nw, faults, seq, opts.BatchSize, shards, opts.CoverageTarget, opts.Progress)
	nBatches := l.Batches()
	ordered := l.Faults()
	shards = min(shards, nBatches)
	simOpts := opts.Sim
	if simOpts.Workers <= 0 && shards > 1 {
		simOpts.Workers = 1
	}

	// Resume: completed batches come from the checkpoint log, not from
	// simulation.
	var ck *ckLog
	if opts.CheckpointPath != "" {
		ck, err = openLog(opts.CheckpointPath, &ckHeader{
			Version:        checkpointVersion,
			Sequence:       seq.Name,
			NumSettings:    seq.NumSettings(),
			NumFaults:      len(faults),
			NumNodes:       nw.NumNodes(),
			NumTransistors: nw.NumTransistors(),
			BatchSize:      l.BatchSize(),
			NumBatches:     nBatches,
			FaultsHash:     hashFaults(ordered),
			SimHash:        hashSimOptions(simOpts),
		}, l)
		if err != nil {
			l.close()
			return nil, nil, err
		}
		defer ck.f.Close()
	}

	// A local slot keeps one batch and re-arms it for every batch it runs
	// (core.FaultBatch.Reset): the interest rows, replay index, circuits
	// and worker solvers are allocated once per slot, not once per batch
	// — and, with the caller's slots, not once per campaign. A slot runs
	// one batch at a time, so its batch is never shared.
	slotBatch := make([]*core.FaultBatch, shards)
	copy(slotBatch, slots)
	run := func(ctx context.Context, slot, i int, into *core.BatchResult) (*core.BatchResult, error) {
		lo, hi := l.Window(i)
		batchOpts := simOpts
		if obs := l.observer(i); obs != nil {
			batchOpts.OnObserve = obs
		}
		b := slotBatch[slot]
		var err error
		if b == nil {
			b, err = core.NewFaultBatch(tab, ordered[lo:hi], batchOpts)
			slotBatch[slot] = b
		} else {
			err = b.Reset(ordered[lo:hi], batchOpts)
		}
		if err != nil {
			return nil, err
		}
		if into.PerSetting != nil || into.PerPattern != nil {
			b.ReuseRows(into.PerSetting, into.PerPattern)
		}
		return b.RunRecording(ctx, rec, seq)
	}
	if opts.Remote != nil {
		run = opts.Remote(l)
	}
	// slotLast[slot] is the last batch the slot completed and logged, -1
	// before its first. When the slot starts its next batch the ledger
	// folds that result's row tables and hands them back (Ledger.release)
	// for the slot to fill again: a local slot's batch refills them
	// (core.FaultBatch.ReuseRows), a Remote slot decodes its next result
	// into them. So a campaign holds its row sums plus one table per slot,
	// not one per batch; the last batch a slot runs keeps its rows.
	slotLast := make([]int, shards)
	for slot := range slotLast {
		slotLast[slot] = -1
	}
	// Once the campaign has failed, start refuses every later batch, so a
	// failing shard goes on draining indices without running them.
	fanout.Each(nBatches, shards, func(slot, i int) {
		if !l.start(i) {
			return // resumed from checkpoint, or the campaign has stopped
		}
		into := &core.BatchResult{}
		if last := slotLast[slot]; last >= 0 {
			into.PerSetting, into.PerPattern = l.release(last)
		}
		br, err := run(l.run, slot, i, into)
		if err == nil {
			err = l.complete(i, br)
		}
		if err == nil && ck != nil {
			err = ck.append(i, br)
		}
		if err != nil {
			l.fail(err)
			return
		}
		slotLast[slot] = i
	})
	// The last batch each local slot ran keeps its rows until Finish, which
	// hands them back to the slot's batch.
	for slot, i := range slotLast {
		if b := slotBatch[slot]; i >= 0 && b != nil {
			l.home(i, b)
		}
	}
	copy(slots, slotBatch)
	return l, rec, nil
}

// Merge combines per-batch results into a monolithic-equivalent
// core.Result plus per-fault outcomes, folding every result's row tables
// through core.Fold, the one assembly of a core.Result, at setting
// granularity: per-setting active-circuit counts sum across batches (each
// fault lives in exactly one), so MaxActive matches a monolithic run
// exactly. Pattern names and setting counts come from seq, and good work
// from the recording (Recording.SettingWork, all Merge reads of it).
//
// results is indexed by window: batch i covers positions
// [i*batchSize, min((i+1)*batchSize, nf)) of the fault list the batches
// were cut from, and PerFault comes out in that list's order (Ledger.Finish
// writes universe order instead). A nil entry marks a batch that was never
// simulated; its faults merge as Skipped. Every other entry must have the
// shape of its window and of seq (Ledger.Check, ErrBatchShape). Merge is
// the single determinism point of every campaign, local or distributed:
// batches that produce the same results — on one machine or many, folded
// in any order — merge to the same Result. The Batches* accounting fields
// are left zero; Ledger.Finish fills them.
func Merge(rec *switchsim.Recording, seq *switchsim.Sequence, nf, batchSize int, results []*core.BatchResult) *Result {
	f := core.NewFold(seq, nf, len(results))
	for _, br := range results {
		if br != nil {
			f.Add(br)
		}
	}
	return merge(&f, rec.SettingWork, nf, batchSize, results, nil)
}

// merge finishes the fold f, into which every non-nil result's rows are
// folded, with the results' per-fault columns (results as in Merge): the
// outcome of batch position p goes to PerFault[order[p]], or to
// PerFault[p] when order is nil. Skipped batches contribute their width
// to the live counts (their circuits were never simulated, hence never
// dropped).
func merge(f *core.Fold, goodWork func(si int) int64, nf, batchSize int, results []*core.BatchResult, order []int32) *Result {
	res := &Result{PerFault: make([]FaultOutcome, nf)}
	skipped := 0
	for bi, br := range results {
		lo := bi * batchSize
		for j := range min(batchSize, nf-lo) {
			p := lo + j
			if order != nil {
				p = int(order[p])
			}
			o := &res.PerFault[p]
			if br == nil {
				o.Skipped = true
				skipped++
				continue
			}
			*o = FaultOutcome{Detected: br.Detected[j], Detection: br.Detections[j], Oscillated: br.Oscillated[j], Records: br.Records[j]}
			f.Count(o.Detected, o.Detection, o.Oscillated)
		}
	}
	res.Run = *f.Finish(goodWork, skipped)
	return res
}
