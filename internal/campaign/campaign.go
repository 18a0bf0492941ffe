// Campaign execution: sharding, the shard pool, progress fan-out, and
// the deterministic merge. Package documentation lives in doc.go.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"

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
	// simulation entirely. When nil, the trajectory is recorded first.
	Recording *switchsim.Recording

	// Tables, when non-nil, is a pre-built read-only table set over the
	// campaign's network, shared by all batches (and, in a long-running
	// service, across campaigns over the same circuit). When nil, tables
	// are built per Run. Must have been built from the same Network.
	Tables *switchsim.Tables

	// CheckpointPath, when non-empty, makes the campaign resumable: the
	// checkpoint file is loaded if present (completed batches are not
	// re-simulated) and rewritten after every batch completion.
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
	// Recording is the good trajectory the campaign replayed (the one
	// passed in Options, or the one recorded on entry): reusable for
	// further campaigns over the same sequence.
	Recording *switchsim.Recording

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
	l, rec, err := Execute(ctx, nw, faults, seq, opts)
	if err != nil {
		return nil, err
	}
	return l.Finish(rec)
}

// Execute is Run without the merge: it replays the batches and returns
// the drained ledger with the recording they ran against. The caller ends
// with Ledger.Finish — which is Run — or, when it only forwards raw
// batches, with Ledger.Verdict and Ledger.Batch.
func Execute(ctx context.Context, nw *netlist.Network, faults []fault.Fault, seq *switchsim.Sequence, opts Options) (l *Ledger, rec *switchsim.Recording, err error) {
	rec = opts.Recording
	if rec == nil {
		rec = core.Record(nw, seq, opts.Sim)
	}
	if err := rec.Validate(nw, seq.NumSettings()); err != nil {
		return nil, nil, err
	}
	tab := opts.Tables
	if tab == nil {
		tab = switchsim.NewTables(nw)
	} else if tab.Net != nw {
		return nil, nil, fmt.Errorf("campaign: Options.Tables was built over a different network")
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

	// Resume: completed batches come from the checkpoint, not from
	// simulation.
	ck := &Checkpoint{
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
		Done:           map[int]*core.BatchResult{},
	}
	if opts.CheckpointPath != "" {
		prev, err := loadCheckpointFile(opts.CheckpointPath)
		if err == nil && prev != nil {
			if err = prev.matches(ck); err != nil {
				err = fmt.Errorf("campaign: checkpoint %s: %w", opts.CheckpointPath, err)
			}
		}
		if err != nil {
			l.close()
			return nil, nil, err
		}
		if prev != nil {
			// Walk the batches in index order so the whole resume path —
			// counters included — is deterministic. A completed batch comes
			// back as is; an interrupted one re-runs from its first setting.
			for i := 0; i < nBatches; i++ {
				if br := prev.Done[i]; br != nil {
					if err := l.resume(i, br); err != nil {
						l.close()
						return nil, nil, fmt.Errorf("checkpoint %s: %w", opts.CheckpointPath, err)
					}
					ck.Done[i] = br
				}
			}
		}
	}

	// Once the campaign has failed, Start refuses every later batch, so a
	// failing shard goes on draining indices without running them.
	var ckMu sync.Mutex
	fanout.Each(nBatches, shards, func(_, i int) {
		if !l.Start(i) {
			return // resumed from checkpoint, or the campaign has stopped
		}
		lo, hi := l.Window(i)
		batchOpts := simOpts
		if obs := l.observer(i); obs != nil {
			batchOpts.OnObserve = obs
		}
		br, err := core.RunBatch(l.Context(), tab, ordered[lo:hi], rec, seq, batchOpts)
		if err == nil {
			err = l.Complete(i, br)
		}
		if err == nil && opts.CheckpointPath != "" {
			ckMu.Lock()
			ck.Done[i] = br
			err = ck.saveFile(opts.CheckpointPath)
			ckMu.Unlock()
		}
		if err != nil {
			l.Fail(err)
		}
	})
	return l, rec, nil
}

// Merge combines per-batch results into a monolithic-equivalent
// core.Result plus per-fault outcomes. Batches are merged at setting
// granularity: per-setting active-circuit and live counts sum across
// batches (each fault lives in exactly one), so pattern aggregates like
// MaxActive match a monolithic run exactly. Good-circuit work comes from
// the recording, counted once.
//
// results is indexed by window: batch i covers positions
// [i*batchSize, min((i+1)*batchSize, nf)) of the fault list the batches
// were cut from, and PerFault comes out in that list's order. A campaign
// cuts them from its universe in batch order (Ledger.Faults), and
// Ledger.Finish scatters PerFault back to universe order; a caller that
// cut index windows of its own list gets that list's order. A nil entry
// marks a batch that was never simulated; its faults merge as Skipped.
// Every other entry must have the shape of its window and of seq — the
// Ledger checks that where a batch arrives (ErrBatchShape), so Merge
// indexes without truncating. Merge is the single determinism point shared
// by Run and by distributed coordinators (internal/distrib): any scheduler
// that produces the same per-batch results — on one machine or many —
// merges to the same Result. The Batches/BatchesRun/BatchesResumed/
// BatchesSkipped accounting fields are left zero here; Ledger.Finish
// fills them.
func Merge(rec *switchsim.Recording, seq *switchsim.Sequence, nf, batchSize int, results []*core.BatchResult) *Result {
	nSettings := seq.NumSettings()
	res := &Result{Recording: rec}
	res.Run = core.Result{Sequence: seq.Name, NumFaults: nf}
	res.PerFault = make([]FaultOutcome, nf)

	// Per-setting fault-side sums across batches. Skipped batches
	// contribute their width to the live counts (their circuits were
	// never simulated, hence never dropped).
	active := make([]int, nSettings)
	faultWork := make([]int64, nSettings)
	for bi, br := range results {
		lo := bi * batchSize
		width := min(batchSize, nf-lo)
		if br == nil {
			for fi := lo; fi < lo+width; fi++ {
				res.PerFault[fi].Skipped = true
			}
			continue
		}
		for si := range active {
			active[si] += br.PerSetting[si].ActiveCircuits
			faultWork[si] += br.PerSetting[si].FaultWork
		}
		for j := 0; j < width; j++ {
			o := &res.PerFault[lo+j]
			o.Detected = br.Detected[j]
			o.Detection = br.Detections[j]
			o.Oscillated = br.Oscillated[j]
			o.Records = br.Records[j]
		}
	}

	// Assemble per-pattern statistics from the sequence structure, the
	// recording's good-side figures, and the per-setting/-pattern sums.
	si := 0
	for pi := range seq.Patterns {
		p := &seq.Patterns[pi]
		ps := core.PatternStats{Pattern: pi, Name: p.Name, Settings: len(p.Settings)}
		for range p.Settings {
			ps.GoodWork += rec.Steps[si+1].GoodWork // Steps[0] is the initialization
			ps.FaultWork += faultWork[si]
			if active[si] > ps.MaxActive {
				ps.MaxActive = active[si]
			}
			si++
		}
		for bi, br := range results {
			lo := bi * batchSize
			width := min(batchSize, nf-lo)
			if br == nil {
				ps.LiveBefore += width
				ps.LiveAfter += width
				continue
			}
			ps.LiveBefore += br.PerPattern[pi].LiveBefore
			ps.LiveAfter += br.PerPattern[pi].LiveAfter
			ps.Detected += br.PerPattern[pi].Detected
		}
		res.Run.PerPattern = append(res.Run.PerPattern, ps)
		res.Run.GoodWork += ps.GoodWork
		res.Run.FaultWork += ps.FaultWork
	}

	for fi := range res.PerFault {
		o := &res.PerFault[fi]
		if o.Detected {
			res.Run.Detected++
			if o.Detection.Hard {
				res.Run.HardDetected++
			}
		}
		if o.Oscillated {
			res.Run.Oscillated++
		}
	}
	return res
}
