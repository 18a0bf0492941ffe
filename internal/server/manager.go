// Job manager: the submission queue, the bounded runner pool, and
// terminal-job retention. Package documentation lives in doc.go.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
)

// Config sizes the server.
type Config struct {
	// MaxJobs is the number of campaigns running concurrently (the
	// runner-pool width). Default 2.
	MaxJobs int
	// QueueDepth is the number of accepted-but-not-started jobs the
	// server holds before shedding load with 429. Default 16.
	QueueDepth int
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// StreamInterval is the minimum spacing between consecutive snapshot
	// lines on an NDJSON stream (detection and terminal lines are never
	// delayed). Default 100ms.
	StreamInterval time.Duration
	// KeepTerminal bounds how many finished (done/failed/cancelled) jobs
	// the server retains for status queries: beyond it, the oldest
	// terminal jobs are evicted, so a long-running daemon's memory does
	// not grow with its job history. Default 64.
	KeepTerminal int
	// KeepRecordings bounds how many uploaded good-circuit recordings
	// (PUT /recordings/{fp}) the server retains, evicted oldest-first.
	// One recording per distinct circuit/sequence pair is typical, so a
	// small bound suffices. Default 8.
	KeepRecordings int
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.StreamInterval <= 0 {
		c.StreamInterval = 100 * time.Millisecond
	}
	if c.KeepTerminal <= 0 {
		c.KeepTerminal = 64
	}
	if c.KeepRecordings <= 0 {
		c.KeepRecordings = 8
	}
	return c
}

// ErrQueueFull is returned by Submit when both the runner pool and the
// queue are saturated; HTTP maps it to 429 with Retry-After.
var ErrQueueFull = errors.New("server: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("server: shutting down")

// ErrUnknownRecording is returned by Submit for a spec whose recording_fp
// names no stored recording; HTTP maps it to 409 Conflict.
var ErrUnknownRecording = errors.New("server: unknown recording")

// Manager owns the job table, the submission queue, the runner pool, and
// the uploaded-recording store.
type Manager struct {
	cfg        Config
	cache      *cache
	recordings *recordingStore

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	nonIdle sync.Cond // signaled when pending grows or the manager closes
	pending []*Job    // queued jobs, submission order; len bounded by QueueDepth
	jobs    map[string]*Job
	order   []string
	nextID  int
	closed  bool
}

// NewManager starts cfg.MaxJobs runner goroutines and returns the
// manager. Call Close to stop them.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		cache:      newCache(),
		recordings: newRecordingStore(cfg.KeepRecordings),
		ctx:        ctx,
		cancel:     cancel,
		jobs:       map[string]*Job{},
	}
	m.nonIdle.L = &m.mu
	for i := 0; i < cfg.MaxJobs; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m
}

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// Submit checks and enqueues a job: every reason to refuse it is found
// here, so a runner only runs what Submit accepted. It returns ErrClosed
// during shutdown and ErrQueueFull when the pool and queue are saturated,
// both before any resolve and again under the lock that enqueues;
// ErrUnknownRecording (wrapped) when recording_fp names no stored
// recording; and any other error for a spec that does not validate or
// resolve, whose recording does not match its circuit, or whose shard
// window runs past the universe. The accepted job holds its resolved
// workload, cut to the window, and its recording.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	m.mu.Lock()
	err := m.admitLocked()
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	wl, err := m.resolve(&spec)
	if err != nil {
		return nil, err
	}
	if fp := strings.ToLower(spec.RecordingFP); fp != "" { // the /recordings handlers store lowercase
		e, ok := m.recordings.get(fp)
		if !ok {
			return nil, fmt.Errorf("%w %s: upload it with PUT /recordings/%s first", ErrUnknownRecording, fp, fp)
		}
		if err := e.rec.Validate(wl.Net, wl.Seq.NumSettings()); err != nil {
			return nil, fmt.Errorf("recording %s: %w", fp, err)
		}
		wl.Recording = e.rec
	}
	if lo, hi := spec.ShardLo, spec.ShardHi; spec.IsShard() {
		if hi > len(wl.Faults) {
			return nil, fmt.Errorf("shard window [%d,%d) out of range: universe has %d faults", lo, hi, len(wl.Faults))
		}
		wl.Faults = wl.Faults[lo:hi]
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.admitLocked(); err != nil {
		return nil, err
	}
	m.nextID++
	job := newJob(fmt.Sprintf("job-%d", m.nextID), spec, wl, m.ctx)
	m.pending = append(m.pending, job)
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.nonIdle.Signal()
	return job, nil
}

// admitLocked reports why the manager takes no job now, if it does not.
// The caller holds m.mu.
func (m *Manager) admitLocked() error {
	switch {
	case m.closed:
		return ErrClosed
	case len(m.pending) >= m.cfg.QueueDepth:
		return ErrQueueFull
	}
	return nil
}

// Cancel cancels a job by id: a queued job leaves the queue (freeing its
// slot) and turns terminal immediately; a running job's context is
// cancelled and its campaign stops cooperatively. Reports whether the
// job exists.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	for i, p := range m.pending {
		if p == job {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	// Outside m.mu: finish publishes under the job lock.
	if job.Snapshot().State == StateQueued {
		job.finish(StateCancelled, "cancelled while queued", nil)
		m.pruneTerminal()
	}
	job.Cancel()
	return true
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns snapshots of every known job in submission order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// Remove deletes a terminal job from the table. It reports whether the
// job existed and was terminal (live jobs must be cancelled first).
func (m *Manager) Remove(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok || !j.Snapshot().State.Terminal() {
		return false
	}
	m.forgetLocked([]string{id})
	return true
}

// forgetLocked drops the jobs ids from the table. The caller holds m.mu.
func (m *Manager) forgetLocked(ids []string) {
	for _, id := range ids {
		delete(m.jobs, id)
	}
	m.order = slices.DeleteFunc(m.order, func(id string) bool { return m.jobs[id] == nil })
}

// Close cancels every job, stops the runner pool, and waits for it to
// drain. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.nonIdle.Broadcast()
	m.mu.Unlock()
	m.cancel() // cancels every job ctx (all derive from m.ctx)
	m.wg.Wait()
}

// runner is one worker of the bounded pool: it drains the pending queue,
// running one campaign at a time, until Close.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.nonIdle.Wait()
		}
		if len(m.pending) == 0 { // closed and drained
			m.mu.Unlock()
			return
		}
		job := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()
		if job.ctx.Err() != nil {
			job.finish(StateCancelled, "cancelled while queued", nil)
		} else {
			m.runJob(job)
		}
		m.pruneTerminal()
	}
}

// pruneTerminal evicts the oldest terminal jobs beyond Config.KeepTerminal
// so the daemon's memory is bounded by its concurrency and retention
// limits, not by its lifetime job count.
func (m *Manager) pruneTerminal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	var terminal []string
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok && j.Snapshot().State.Terminal() {
			terminal = append(terminal, id)
		}
	}
	if n := len(terminal) - m.cfg.KeepTerminal; n > 0 {
		m.forgetLocked(terminal[:n])
	}
}

// runJob executes one accepted campaign, publishing progress into the
// job as it streams from the shard pool. Submit has checked everything
// about the job, so what can fail here is the campaign itself.
func (m *Manager) runJob(job *Job) {
	wl := job.setRunning()
	if wl == nil {
		return
	}
	start := time.Now()

	// A built-in workload's job without an upload replays the entry's
	// cached capture, taken here, on first use, and not on the
	// submitting request.
	rec := wl.Recording
	if rec == nil && wl.entry != nil {
		rec = wl.entry.recording(wl.Seq.NumSettings())
	}
	opts := campaign.Options{
		Sim:            job.Spec.SimOptions(wl),
		BatchSize:      job.Spec.BatchSize,
		Shards:         job.Spec.Shards,
		CoverageTarget: job.Spec.CoverageTarget,
		Recording:      rec,
		Tables:         wl.Tables,
		Progress:       job.onProgress,
	}
	if opts.Shards <= 0 {
		opts.Shards = m.fairShare()
	}
	// A shard job is a one-batch campaign over its window of the universe
	// (Submit cut it), run exactly like a campaign job. One batch keeps its
	// faults in the order given, so progress and detection indices are
	// positions in the window; the coordinator's ledger maps them to
	// universe indices.
	if job.Spec.IsShard() {
		opts.BatchSize, opts.Shards = len(wl.Faults), 1
		if opts.Sim.Workers <= 0 {
			opts.Sim.Workers = m.fairShare()
		}
	}
	job.publish(func() {
		job.last.NumFaults, job.last.LiveFaults = len(wl.Faults), len(wl.Faults)
	})

	var r *Result
	l, rec, err := campaign.Execute(job.ctx, wl.Net, wl.Faults, wl.Seq, opts)
	switch {
	case err != nil:
	case job.Spec.IsShard():
		// The coordinator merges, so the worker does not: the raw batch
		// comes straight off the ledger.
		if err = l.Verdict(); err == nil {
			br := l.Batch(0)
			r = &Result{Detected: br.DetectedCount(), NumFaults: br.NumFaults, Batches: 1, BatchesRun: 1}
			r.Coverage = core.Coverage(r.Detected, r.NumFaults)
			if job.Spec.IncludeBatch {
				r.Batch = br
			}
		}
	default:
		var res *campaign.Result
		if res, err = l.Finish(rec.SettingWork); err == nil {
			r = buildResult(wl, res, job.Spec.IncludePerFault)
		}
	}
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || job.ctx.Err() != nil):
		job.finish(StateCancelled, "cancelled", nil)
	case err != nil:
		job.finish(StateFailed, err.Error(), nil)
	default:
		r.WallNS = time.Since(start).Nanoseconds()
		job.finish(StateDone, "", r)
	}
}

// fairShare is the default parallelism of one job: concurrent jobs split
// the machine instead of each claiming all of it.
func (m *Manager) fairShare() int {
	n := runtime.GOMAXPROCS(0) / m.cfg.MaxJobs
	if n < 1 {
		n = 1
	}
	return n
}

// buildResult summarizes a finished campaign.
func buildResult(wl *Workload, res *campaign.Result, includePerFault bool) *Result {
	r := &Result{
		Coverage:       res.Coverage(),
		Detected:       res.Run.Detected,
		HardDetected:   res.Run.HardDetected,
		Oscillated:     res.Run.Oscillated,
		NumFaults:      res.Run.NumFaults,
		Batches:        res.Batches,
		BatchesRun:     res.BatchesRun,
		BatchesResumed: res.BatchesResumed,
		BatchesSkipped: res.BatchesSkipped,
		GoodWork:       res.Run.GoodWork,
		FaultWork:      res.Run.FaultWork,
	}
	if !includePerFault {
		return r
	}
	r.PerFault = make([]PerFault, len(res.PerFault))
	for fi := range res.PerFault {
		o := &res.PerFault[fi]
		pf := PerFault{
			Fault:      wl.Faults[fi].Describe(wl.Net),
			Detected:   o.Detected,
			Oscillated: o.Oscillated,
			Skipped:    o.Skipped,
		}
		if d := o.Detection; o.Detected {
			pf.Pattern = d.Pattern
			pf.Setting = d.Setting
			pf.Output = wl.Net.Name(d.Output)
			pf.Good = d.Good.String()
			pf.Faulty = d.Faulty.String()
			pf.Hard = d.Hard
		}
		r.PerFault[fi] = pf
	}
	return r
}
