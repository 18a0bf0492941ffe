// Coordinator execution: where a shard runs and how a failed one is
// retried. campaign.Execute drives the batches, the checkpoint and the
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

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/netlist"
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
	// nil, the coordinator records one on entry, straight into its wire
	// form. Either way it is encoded once and uploaded to each worker by
	// content fingerprint.
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

	// CheckpointPath, when non-empty, makes the campaign resumable with
	// the log campaign.Options.CheckpointPath names: completed shards are
	// appended to it and not dispatched again. A log written by a local
	// campaign with the same BatchSize resumes here, and the other way
	// round.
	CheckpointPath string

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
// attempt, and the consecutive failures after which a worker is
// abandoned.
const maxTransientRetries = 10

// dispatchError marks a shard failure where the job never started on the
// worker (upload or submission failed): it counts toward the worker's
// abandonment, not against the shard's attempts, so a dead worker cannot
// burn a shard's attempts while the healthy workers are busy.
type dispatchError struct{ err error }

func (e *dispatchError) Error() string { return e.err.Error() }
func (e *dispatchError) Unwrap() error { return e.err }

// Run executes a distributed fault campaign over the worker pool: one
// recording upload per worker, one shard job per batch, driven by
// campaign.Execute and merged by its ledger into a result bit-identical
// to the single-process engine. See the package documentation for the
// execution model.
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
	rec, goodWork, err := streamRecording(wl, opts.Recording)
	if err != nil {
		return nil, err
	}
	n := len(opts.Workers)
	c := &coordinator{
		opts:     opts,
		rec:      rec,
		uploaded: make([]bool, n),
		uploadMu: make([]sync.Mutex, n),
		sem:      make([]chan struct{}, n),
		fails:    make([]atomic.Int32, n),
		lineBuf:  make([][]byte, n*opts.InFlight),
	}
	for wi := range c.sem {
		c.sem[wi] = make(chan struct{}, opts.InFlight)
	}
	remote := func(l *campaign.Ledger) func(context.Context, int, int) (*core.BatchResult, error) {
		// The worker-side template: the circuit fields verbatim (so
		// workers resolve the same network and sequence) and
		// campaign-level fields stripped (the coordinator owns batching,
		// early stop and merging). dispatch fills in each shard's faults.
		c.ledger, c.net, c.spec = l, wl.Net, spec
		c.spec.FaultModel = ""
		c.spec.SampleEvery = 0
		c.spec.BatchSize = 0
		c.spec.Shards = 0
		c.spec.CoverageTarget = 0
		c.spec.IncludePerFault = false
		c.spec.Workers = opts.SimWorkers
		c.spec.RecordingFP = c.rec.fp
		c.spec.IncludeBatch = true
		return c.shard
	}
	// Shards go out in window order. The windows follow fault sites, so
	// the faults on the circuit's first-built nodes — on the RAMs, the
	// address decoders and control logic, the costliest shards — dispatch
	// first; a cost-ranked order measured no better (DESIGN.md,
	// "Distributed campaigns").
	l, _, err := campaign.Execute(ctx, wl.Net, wl.Faults, wl.Seq, campaign.Options{
		Sim:            spec.SimOptions(wl),
		BatchSize:      opts.BatchSize,
		Shards:         n * opts.InFlight,
		CoverageTarget: spec.CoverageTarget,
		CheckpointPath: opts.CheckpointPath,
		Progress:       opts.Progress,
		Remote:         remote,
	})
	if err != nil {
		return nil, err
	}
	return l.Finish(goodWork)
}

// coordinator is the shared state of one distributed run. Everything the
// result depends on — which shards are complete, the merged coverage
// count, when to stop, how the run ended — is the ledger's; what is left
// here is where shards run and what happens when a worker fails.
type coordinator struct {
	opts   Options
	spec   server.JobSpec
	net    *netlist.Network
	rec    *encoded
	ledger *campaign.Ledger

	uploadMu []sync.Mutex // per worker
	uploaded []bool
	sem      []chan struct{} // per worker: InFlight shards at a time
	fails    []atomic.Int32  // consecutive failures per worker

	// lineBuf is each shard slot's stream line buffer, as large as the
	// longest line the slot has read (a result line is hundreds of
	// kilobytes). Only the slot's goroutine touches it.
	lineBuf [][]byte
}

// shard runs batch i on the workers until the ledger accepts its result.
// The first attempt goes to the slot's home worker, slot mod the worker
// count, so each worker is home to InFlight slots; every retry goes to
// the next worker in rotation that has not been abandoned. A failure
// costs the worker one of its maxTransientRetries consecutive failures; a
// job that broke, failed or returned a result the ledger refuses also
// costs the shard one of its MaxAttempts.
func (c *coordinator) shard(ctx context.Context, slot, i int) (*core.BatchResult, error) {
	attempts := 0
	for wi := slot; ; wi++ {
		if wi = c.next(wi); wi < 0 {
			return nil, errors.New("distrib: all workers unavailable")
		}
		select {
		case c.sem[wi] <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		br, err := c.dispatch(ctx, slot, wi, i)
		<-c.sem[wi]
		if err == nil {
			c.fails[wi].Store(0)
			return br, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		var de *dispatchError
		if !errors.As(err, &de) {
			attempts++
			c.opts.Logf("distrib: shard %d failed on %s (attempt %d of %d): %v", i, c.opts.Workers[wi], attempts, c.opts.MaxAttempts, err)
			if attempts >= c.opts.MaxAttempts {
				return nil, fmt.Errorf("distrib: shard %d failed %d times, last on %s: %w", i, attempts, c.opts.Workers[wi], err)
			}
		}
		k := c.fails[wi].Add(1)
		if de != nil {
			c.opts.Logf("distrib: shard %d failed on %s (worker failure %d of %d): %v", i, c.opts.Workers[wi], k, maxTransientRetries, err)
		}
		if k == maxTransientRetries {
			c.opts.Logf("distrib: abandoning worker %s after %d consecutive failures", c.opts.Workers[wi], maxTransientRetries)
		}
	}
}

// next returns the first worker from wi on, in rotation, that has not
// been abandoned, or -1 when every worker has.
func (c *coordinator) next(wi int) int {
	for k := range c.opts.Workers {
		if w := (wi + k) % len(c.opts.Workers); c.fails[w].Load() < maxTransientRetries {
			return w
		}
	}
	return -1
}

// dispatch executes batch i on worker wi for shard slot slot: ensure the
// recording is uploaded, submit the job, stream it to a terminal state, and
// check the batch result it returns. The job carries the batch's window of
// the ledger's universe as its inline fault list and asks for all of it, so
// the worker parses and holds only the faults it runs, and they are the
// ledger's whatever build the worker runs. A 409 means the worker no longer
// holds the recording (a restart, or its store evicted it): the flag is
// cleared so the next shard sent there uploads again. The outstanding job,
// if any, is cancelled with DELETE when the shard did not complete — which
// is also how an aborted campaign reaches the workers.
func (c *coordinator) dispatch(ctx context.Context, slot, wi, i int) (br *core.BatchResult, err error) {
	base := c.opts.Workers[wi]
	if err := c.ensureRecording(ctx, wi); err != nil {
		return nil, &dispatchError{fmt.Errorf("uploading recording: %w", err)}
	}

	lo, hi := c.ledger.Window(i)
	var list strings.Builder
	fault.WriteList(&list, c.net, c.ledger.Faults()[lo:hi]) // a strings.Builder takes every write
	spec := c.spec
	spec.Faults, spec.ShardLo, spec.ShardHi = list.String(), 0, hi-lo
	jobID, err := c.submit(ctx, base, &spec)
	if errors.Is(err, server.ErrUnknownRecording) {
		c.uploadMu[wi].Lock()
		c.uploaded[wi] = false
		c.uploadMu[wi].Unlock()
	}
	if err != nil {
		return nil, &dispatchError{err}
	}
	defer func() {
		if err != nil {
			c.deleteJob(base, jobID)
		}
	}()

	if br, err = c.stream(ctx, slot, base, jobID, i); err != nil {
		return nil, err
	}
	// A result of the wrong shape costs the shard this attempt.
	if err = c.ledger.Check(i, br); err != nil {
		return nil, err
	}
	return br, nil
}
