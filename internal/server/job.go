// Job lifecycle: the state machine a submission moves through, the
// progress snapshot it publishes, and the append-only detection log
// streaming subscribers replay.
package server

import (
	"context"
	"sync"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
)

// State is a job's lifecycle state.
type State string

// Job states. Queued and Running are live; the rest are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Snapshot is a job's point-in-time progress view: what GET /jobs/{id}
// returns and what the NDJSON stream emits between detections. Within
// one job the Detected count, Coverage, and BatchesDone are monotonically
// non-decreasing across snapshots.
type Snapshot struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`

	Batches     int     `json:"batches"`
	BatchesDone int     `json:"batches_done"`
	NumFaults   int     `json:"num_faults"`
	Detected    int     `json:"detected"`
	Coverage    float64 `json:"coverage"`
	// LiveFaults is the most recently reporting batch's live count (an
	// activity indicator, not a global aggregate).
	LiveFaults int `json:"live_faults"`
	// Events counts progress events folded into this snapshot.
	Events int64 `json:"events"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// DetectionGroup is one observation's worth of detection events: the
// faults first detected at one (batch, pattern, setting) observation.
type DetectionGroup struct {
	Batch   int   `json:"batch"`
	Pattern int   `json:"pattern"`
	Setting int   `json:"setting"`
	Faults  []int `json:"faults"`
}

// PerFault is one fault's outcome in a job result.
type PerFault struct {
	Fault      string `json:"fault"`
	Detected   bool   `json:"detected"`
	Pattern    int    `json:"pattern,omitempty"`
	Setting    int    `json:"setting,omitempty"`
	Output     string `json:"output,omitempty"`
	Good       string `json:"good,omitempty"`
	Faulty     string `json:"faulty,omitempty"`
	Hard       bool   `json:"hard,omitempty"`
	Oscillated bool   `json:"oscillated,omitempty"`
	Skipped    bool   `json:"skipped,omitempty"`
}

// Result is a finished job's summary (plus the per-fault table when the
// spec asked for it).
type Result struct {
	Coverage       float64    `json:"coverage"`
	Detected       int        `json:"detected"`
	HardDetected   int        `json:"hard_detected"`
	Oscillated     int        `json:"oscillated"`
	NumFaults      int        `json:"num_faults"`
	Batches        int        `json:"batches"`
	BatchesRun     int        `json:"batches_run"`
	BatchesResumed int        `json:"batches_resumed"`
	BatchesSkipped int        `json:"batches_skipped"`
	GoodWork       int64      `json:"good_work"`
	FaultWork      int64      `json:"fault_work"`
	WallNS         int64      `json:"wall_ns"`
	PerFault       []PerFault `json:"per_fault,omitempty"`
	// Batch is a shard job's raw per-batch result (present only when the
	// spec set include_batch): what a distributed coordinator merges at
	// setting granularity via campaign.Merge.
	Batch *core.BatchResult `json:"batch,omitempty"`
}

// Job is one submitted campaign.
type Job struct {
	ID   string
	Spec JobSpec

	// wl is the workload Submit resolved and checked: the runner only
	// runs it. finish drops it, so a retained terminal job pins no
	// workload and no uploaded recording.
	wl *Workload

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time

	events int64
	last   campaign.ProgressEvent // the counters the snapshot shows
	detlog []DetectionGroup
	result *Result

	// notify is closed and replaced whenever something a subscriber must
	// not wait for happens — a detection group is logged, the state
	// changes — and subscribers then re-read the snapshot and the
	// detection log past their cursor. Progress without detections, one
	// event per simulated setting, updates the counters and wakes nobody:
	// stream handlers pick it up on their own StreamInterval timer.
	notify chan struct{}
}

func newJob(id string, spec JobSpec, wl *Workload, parent context.Context) *Job {
	ctx, cancel := context.WithCancel(parent)
	return &Job{
		ID: id, Spec: spec, wl: wl,
		ctx: ctx, cancel: cancel,
		state:     StateQueued,
		submitted: time.Now(),
		notify:    make(chan struct{}),
	}
}

// publish runs f under the job lock and wakes every subscriber.
func (j *Job) publish(f func()) {
	j.mu.Lock()
	f()
	j.events++
	j.wakeLocked()
	j.mu.Unlock()
}

// wakeLocked wakes every subscriber; the caller holds the job lock.
func (j *Job) wakeLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// onProgress records one campaign progress event. The campaign ledger
// delivers events one at a time with monotonic counters, so the latest
// event is the current state. Only an event that carries detections wakes
// the subscribers; the rest — nearly all of them — cost a lock and a
// struct copy, no channel and no allocation.
func (j *Job) onProgress(ev campaign.ProgressEvent) {
	j.mu.Lock()
	j.last = ev
	j.events++
	if len(ev.NewlyDetected) > 0 {
		j.detlog = append(j.detlog, DetectionGroup{
			Batch: ev.Batch, Pattern: ev.Pattern, Setting: ev.Setting,
			Faults: ev.NewlyDetected,
		})
		j.wakeLocked()
	}
	j.mu.Unlock()
}

// setRunning moves the job to running and hands the runner its
// workload: nil when the job lost the race with a cancellation.
func (j *Job) setRunning() (wl *Workload) {
	j.publish(func() {
		if j.state.Terminal() {
			return
		}
		j.state = StateRunning
		j.started = time.Now()
		wl = j.wl
	})
	return wl
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, errMsg string, res *Result) {
	j.publish(func() {
		if j.state.Terminal() {
			return
		}
		j.state = state
		j.errMsg = errMsg
		j.finished = time.Now()
		j.result = res
		j.wl = nil
		if res != nil {
			j.last.Detected, j.last.NumFaults = res.Detected, res.NumFaults
			j.last.BatchesDone, j.last.Batches = res.Batches-res.BatchesSkipped, res.Batches
		}
	})
	j.cancel()
}

// Snapshot returns the current progress view.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job) snapshotLocked() Snapshot {
	s := Snapshot{
		ID: j.ID, State: j.state, Error: j.errMsg,
		Batches: j.last.Batches, BatchesDone: j.last.BatchesDone,
		NumFaults: j.last.NumFaults, Detected: j.last.Detected,
		Coverage: j.last.Coverage(), LiveFaults: j.last.LiveFaults,
		Events: j.events, SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}

// Result returns the terminal result (nil while the job is live or when
// it failed).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Cancel requests cooperative cancellation. Safe to call in any state.
func (j *Job) Cancel() { j.cancel() }

// observe returns, atomically: the current snapshot, the detection groups
// appended since cursor (and the advanced cursor), and the channel that
// closes at the next detection group or state change. Streaming handlers
// loop on it.
func (j *Job) observe(cursor int) (Snapshot, []DetectionGroup, int, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var groups []DetectionGroup
	if cursor < len(j.detlog) {
		groups = j.detlog[cursor:len(j.detlog):len(j.detlog)]
		cursor = len(j.detlog)
	}
	return j.snapshotLocked(), groups, cursor, j.notify
}
