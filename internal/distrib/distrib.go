// Coordinator execution: shard partitioning, the worker-slot pool with
// requeue-on-failure, merged monotonic progress, and the deterministic
// merge. Package documentation lives in doc.go.
package distrib

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// Options configures a distributed campaign.
type Options struct {
	// Workers lists the fmossimd base URLs the campaign fans out over
	// (e.g. "http://10.0.0.7:8458"). Required.
	Workers []string

	// InFlight bounds the shards dispatched concurrently to one worker.
	// Default 2: one running plus one queued keeps a worker busy across
	// the dispatch round-trip without swamping it.
	InFlight int

	// BatchSize is the number of faults per shard. 0 splits the universe
	// evenly across the worker slots (one shard per slot). A distributed
	// run merges bit-identically to a single-process campaign.Run with
	// the same BatchSize.
	BatchSize int

	// SimWorkers is the per-shard simulator worker count on the remote
	// (JobSpec.Workers). 0 leaves it to the worker's fair-share default.
	SimWorkers int

	// MaxAttempts bounds how many times one shard may be dispatched
	// before the campaign fails. Default 3.
	MaxAttempts int

	// Recording, when non-nil, is a pre-captured good trajectory; when
	// nil, the coordinator records one on entry. Either way it is encoded
	// once and uploaded to each worker by content fingerprint.
	Recording *switchsim.Recording

	// Client is the HTTP client for worker traffic. Default: a client
	// with no overall timeout (streams outlive any fixed deadline);
	// cancellation comes from Run's context.
	Client *http.Client

	// Progress, when non-nil, receives the merged cluster-wide progress
	// view: one event per streamed snapshot or detection group of any
	// shard plus one per completed shard, delivered and counted exactly
	// as campaign.Options.Progress (the same campaign.Ledger folds both).
	// NewlyDetected indices are universe indices.
	Progress func(campaign.ProgressEvent)

	// Logf, when non-nil, receives coordinator lifecycle messages
	// (dispatches, retries, worker failures).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.InFlight <= 0 {
		o.InFlight = 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// maxTransientRetries bounds 429-and-retry loops within one dispatch
// attempt, and consecutive transport failures before a worker's slots
// give up on it.
const maxTransientRetries = 10

// dispatchError marks a shard failure where the job never started on the
// worker (upload or submission failed): the shard requeues without
// consuming one of its attempts, and the failure counts only toward the
// worker's abandonment threshold.
type dispatchError struct{ err error }

func (e *dispatchError) Error() string { return e.err.Error() }
func (e *dispatchError) Unwrap() error { return e.err }

// shardState tracks one shard through dispatch, failure and requeue.
type shardState struct {
	idx      int
	attempts int
	last     int // worker index of the last failed attempt, -1 initially
	bounced  int // consecutive prefer-a-different-worker requeues
}

// Run executes a distributed fault campaign over the worker pool: one
// recording upload per worker, one shard job per batch, merged with
// campaign.Merge into a result bit-identical to the single-process
// engine. See the package documentation for the execution model.
//
// The spec is a regular (non-shard) JobSpec. Its CoverageTarget and a
// cancelled ctx mean here exactly what they mean to campaign.Run — one
// campaign.Ledger keeps both (package campaign, "Early stop and
// cancellation"): at the target no new shard is dispatched, shards
// already on a worker finish and are merged, and never-dispatched shards
// are reported as skipped; a cancel before that point DELETEs every
// outstanding job and returns ctx's error.
func Run(ctx context.Context, spec server.JobSpec, opts Options) (*campaign.Result, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("distrib: no workers configured")
	}
	if spec.IsShard() {
		return nil, fmt.Errorf("distrib: spec is already a shard job")
	}

	// Resolve the workload exactly as the workers will, so the recording
	// captured here validates there and the fault list sent below names
	// the same nodes and transistors.
	wl, err := server.ResolveSpec(&spec)
	if err != nil {
		return nil, err
	}

	rec := opts.Recording
	if rec == nil {
		rec = core.Record(wl.Net, wl.Seq, core.Options{})
	}
	if err := rec.Validate(wl.Net, wl.Seq.NumSettings()); err != nil {
		return nil, err
	}
	encoded, fp := encodeRecording(rec)

	slots := len(opts.Workers) * opts.InFlight
	ledger := campaign.NewLedger(ctx, wl.Net, wl.Faults, wl.Seq, opts.BatchSize, slots, spec.CoverageTarget, opts.Progress)
	nBatches := ledger.Batches()

	// shardSpec is the worker-side template: the circuit fields verbatim
	// (so workers resolve the same network and sequence), the universe
	// inline in batch order (so a worker's [shard_lo, shard_hi) is the
	// ledger's window whatever build the worker runs), and campaign-level
	// fields stripped (the coordinator owns batching, early stop and
	// merging).
	var list strings.Builder
	fault.WriteList(&list, wl.Net, ledger.Faults()) // a strings.Builder takes every write
	shardSpec := spec
	shardSpec.Faults = list.String()
	shardSpec.FaultModel = ""
	shardSpec.SampleEvery = 0
	shardSpec.BatchSize = 0
	shardSpec.Shards = 0
	shardSpec.CoverageTarget = 0
	shardSpec.IncludePerFault = false
	shardSpec.Workers = opts.SimWorkers
	shardSpec.RecordingFP = fp
	shardSpec.IncludeBatch = true
	c := &coordinator{
		opts:     opts,
		spec:     shardSpec,
		encoded:  encoded,
		fp:       fp,
		ledger:   ledger,
		pending:  make(chan *shardState, nBatches),
		uploaded: make([]bool, len(opts.Workers)),
		uploadMu: make([]sync.Mutex, len(opts.Workers)),
		fails:    make([]int32, len(opts.Workers)),
	}
	// Seed the queue in window order. The windows follow fault sites, so
	// the faults on the circuit's first-built nodes — on the RAMs, the
	// address decoders and control logic, the costliest shards — dispatch
	// first; a cost-ranked order measured no better (DESIGN.md,
	// "Distributed campaigns").
	for i := 0; i < nBatches; i++ {
		c.pending <- &shardState{idx: i, last: -1}
	}

	var wg sync.WaitGroup
	for wi := range opts.Workers {
		for s := 0; s < opts.InFlight; s++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				c.slot(ledger.Context(), wi)
			}(wi)
		}
	}
	wg.Wait()

	select {
	case <-ledger.Idle():
	default: // every slot gave up on its worker with shards still to run
		ledger.Fail(errors.New("distrib: all workers unavailable"))
	}
	return ledger.Finish(rec)
}

// coordinator is the shared state of one distributed run. Everything the
// result depends on — which shards are complete, the merged coverage
// count, when to stop, how the run ended — is the ledger's; what is left
// here is where shards run and what happens when a worker fails.
type coordinator struct {
	opts    Options
	spec    server.JobSpec
	encoded []byte
	fp      string

	ledger  *campaign.Ledger
	pending chan *shardState

	uploadMu []sync.Mutex // per worker
	uploaded []bool
	fails    []int32 // consecutive transport failures per worker (atomic)
}

// slot is one worker dispatch slot: it pulls shards from the queue and
// runs them on worker wi until the ledger has nothing left to run, the
// run is aborted, or the worker is abandoned after repeated transport
// failures.
func (c *coordinator) slot(ctx context.Context, wi int) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.ledger.Idle():
			return
		case sh := <-c.pending:
			if !c.ledger.Start(sh.idx) {
				// The campaign stopped before this shard was ever
				// dispatched: it merges as skipped.
				continue
			}
			// Prefer a different worker for a retry: the one that just
			// failed this shard is the least likely to complete it. The
			// bounce budget keeps this a preference, not a deadlock — if
			// no other worker picks the shard up (all their slots gone or
			// busy), the last-failed worker runs it anyway and the
			// per-shard attempt bound takes over.
			if sh.last == wi && len(c.opts.Workers) > 1 &&
				sh.bounced < len(c.opts.Workers)*c.opts.InFlight {
				sh.bounced++
				c.pending <- sh
				select {
				case <-time.After(50 * time.Millisecond):
				case <-ctx.Done():
					return
				}
				continue
			}
			sh.bounced = 0
			err := c.dispatch(ctx, wi, sh)
			if err == nil {
				atomic.StoreInt32(&c.fails[wi], 0)
				continue
			}
			if ctx.Err() != nil {
				return
			}
			// A dispatch failure (recording upload or submit never
			// reached the worker) is a strike against the worker, not the
			// shard: a dead worker must not burn a shard's attempt budget
			// while the healthy workers are busy. Execution failures —
			// the job started and then broke or failed — count.
			var de *dispatchError
			if !errors.As(err, &de) {
				sh.attempts++
			}
			sh.last = wi
			c.opts.Logf("distrib: shard %d failed on %s (attempt %d): %v",
				sh.idx, c.opts.Workers[wi], sh.attempts, err)
			if sh.attempts >= c.opts.MaxAttempts {
				c.ledger.Fail(fmt.Errorf("distrib: shard %d failed %d times, last on %s: %w",
					sh.idx, sh.attempts, c.opts.Workers[wi], err))
				return
			}
			c.pending <- sh
			if atomic.AddInt32(&c.fails[wi], 1) >= maxTransientRetries {
				c.opts.Logf("distrib: abandoning worker %s after %d consecutive failures",
					c.opts.Workers[wi], maxTransientRetries)
				return
			}
		}
	}
}

// dispatch executes one shard on one worker: ensure the recording is
// uploaded, submit the job, stream it to a terminal state, and hand the
// batch result to the ledger. Any error leaves the shard unassigned (the
// caller requeues); the outstanding job, if any, is cancelled with DELETE
// when the shard did not complete — which is also how an aborted campaign
// reaches the workers.
func (c *coordinator) dispatch(ctx context.Context, wi int, sh *shardState) (err error) {
	base := c.opts.Workers[wi]
	if err := c.ensureRecording(ctx, wi); err != nil {
		return &dispatchError{fmt.Errorf("uploading recording: %w", err)}
	}

	spec := c.spec
	spec.ShardLo, spec.ShardHi = c.ledger.Window(sh.idx)
	jobID, err := c.submit(ctx, base, &spec)
	if err != nil {
		return &dispatchError{err}
	}
	defer func() {
		if err != nil {
			c.deleteJob(base, jobID)
		}
	}()

	br, err := c.stream(ctx, base, jobID, sh)
	if err != nil {
		// A worker can lose its stored recording mid-campaign (restart,
		// store eviction under concurrent campaigns) while this
		// coordinator still believes it uploaded. If the recording is
		// definitively gone, clear the flag so the next shard re-uploads,
		// and charge the failure to the worker, not the shard.
		if ctx.Err() == nil && c.recordingGone(base) {
			c.uploadMu[wi].Lock()
			c.uploaded[wi] = false
			c.uploadMu[wi].Unlock()
			return &dispatchError{fmt.Errorf("worker lost recording %s: %w", c.fp[:12], err)}
		}
		return err
	}
	// A result of the wrong width costs the shard this attempt.
	return c.ledger.Complete(sh.idx, br)
}
