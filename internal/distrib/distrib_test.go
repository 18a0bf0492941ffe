package distrib_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/distrib"
	"fmossim/internal/fault"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// newWorkerPool starts n independent fmossimd workers (each its own
// Manager over httptest) and returns their base URLs plus the servers for
// mid-run manipulation.
func newWorkerPool(t *testing.T, n int, cfg server.Config) ([]string, []*httptest.Server) {
	t.Helper()
	if cfg.StreamInterval == 0 {
		cfg.StreamInterval = 2 * time.Millisecond
	}
	urls := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		mgr := server.NewManager(cfg)
		ts := httptest.NewServer(mgr.Handler())
		t.Cleanup(func() {
			ts.Close()
			mgr.Close()
		})
		urls[i] = ts.URL
		servers[i] = ts
	}
	return urls, servers
}

// ram256Spec is the distributed equivalence workload: the paper's big
// circuit, sampled and truncated to test size exactly as in the server
// suite.
func ram256Spec() server.JobSpec {
	return server.JobSpec{
		Workload:    "ram256",
		Sequence:    "sequence1",
		MaxPatterns: 60,
		FaultModel:  "paper",
		SampleEvery: 8,
	}
}

// resolveAndRecord resolves the spec locally and records the good
// trajectory once, for the monolithic baseline and the coordinator alike.
func resolveAndRecord(t *testing.T, spec server.JobSpec) (*server.Workload, *switchsim.Recording) {
	t.Helper()
	wl, err := server.ResolveSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return wl, core.Record(wl.Net, wl.Seq, core.Options{})
}

func monolithic(t *testing.T, wl *server.Workload, rec *switchsim.Recording, batchSize int) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(context.Background(), wl.Net, wl.Faults, wl.Seq, campaign.Options{
		Sim:       core.Options{Observe: wl.Observe},
		BatchSize: batchSize,
		Recording: rec,
		Tables:    wl.Tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertIdentical checks the distributed result against the monolithic
// one field by field: merged aggregates, per-pattern statistics, and the
// full per-fault outcome table including divergence records.
func assertIdentical(t *testing.T, got, want *campaign.Result) {
	t.Helper()
	if got.Run.Detected != want.Run.Detected || got.Run.HardDetected != want.Run.HardDetected ||
		got.Run.Oscillated != want.Run.Oscillated || got.Run.NumFaults != want.Run.NumFaults {
		t.Fatalf("aggregates: got %d/%d/%d of %d, want %d/%d/%d of %d",
			got.Run.Detected, got.Run.HardDetected, got.Run.Oscillated, got.Run.NumFaults,
			want.Run.Detected, want.Run.HardDetected, want.Run.Oscillated, want.Run.NumFaults)
	}
	if got.Run.GoodWork != want.Run.GoodWork || got.Run.FaultWork != want.Run.FaultWork {
		t.Fatalf("work: got good %d faulty %d, want %d %d",
			got.Run.GoodWork, got.Run.FaultWork, want.Run.GoodWork, want.Run.FaultWork)
	}
	if len(got.Run.PerPattern) != len(want.Run.PerPattern) {
		t.Fatalf("pattern count %d, want %d", len(got.Run.PerPattern), len(want.Run.PerPattern))
	}
	for pi := range want.Run.PerPattern {
		if g, w := got.Run.PerPattern[pi], want.Run.PerPattern[pi]; g != w {
			t.Fatalf("pattern %d stats: got %+v, want %+v", pi, g, w)
		}
	}
	if len(got.PerFault) != len(want.PerFault) {
		t.Fatalf("per-fault rows %d, want %d", len(got.PerFault), len(want.PerFault))
	}
	for fi := range want.PerFault {
		if !reflect.DeepEqual(got.PerFault[fi], want.PerFault[fi]) {
			t.Fatalf("fault %d: got %+v, want %+v", fi, got.PerFault[fi], want.PerFault[fi])
		}
	}
}

// TestDistributedMatchesMonolithic: a RAM256 campaign over three workers
// merges bit-identically to campaign.Run on one machine, and the merged
// progress stream is monotonic.
func TestDistributedMatchesMonolithic(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 32)

	urls, _ := newWorkerPool(t, 3, server.Config{MaxJobs: 2})
	var mu sync.Mutex
	lastDetected := -1
	monotonic := true
	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   urls,
		BatchSize: 32,
		Recording: rec,
		Progress: func(ev campaign.ProgressEvent) {
			mu.Lock()
			if ev.Detected < lastDetected {
				monotonic = false
			}
			lastDetected = ev.Detected
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !monotonic {
		t.Error("merged Detected counter regressed across progress events")
	}
	if lastDetected != want.Run.Detected {
		t.Errorf("final streamed detected %d, want %d", lastDetected, want.Run.Detected)
	}
	if got.BatchesRun != got.Batches || got.BatchesSkipped != 0 {
		t.Errorf("batches: %d run, %d skipped of %d", got.BatchesRun, got.BatchesSkipped, got.Batches)
	}
	assertIdentical(t, got, want)
}

// TestWorkerKilledMidRun: killing one of three workers mid-campaign, with
// batches of 16 so the kill lands mid-queue, retries its shards on the
// survivors, which re-run them trimmed as every batch is, and the merged
// result is still bit-identical to the monolithic baseline.
func TestWorkerKilledMidRun(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 16)

	urls, servers := newWorkerPool(t, 3, server.Config{MaxJobs: 2})
	var kill sync.Once
	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   urls,
		BatchSize: 16,
		Recording: rec,
		Logf:      t.Logf,
		Progress: func(ev campaign.ProgressEvent) {
			// First sign of simulation progress: take worker 0 down hard
			// (in-flight streams break, later dials are refused).
			kill.Do(func() {
				go func() {
					servers[0].CloseClientConnections()
					servers[0].Close()
				}()
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.BatchesRun != got.Batches {
		t.Errorf("batches: %d run of %d", got.BatchesRun, got.Batches)
	}
	assertIdentical(t, got, want)
}

// narrowFirstJob is a shim in front of a worker that narrows the window of
// the first shard job it forwards by one fault.
func narrowFirstJob(t *testing.T, worker http.Handler) http.Handler {
	var narrowed atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/jobs" && narrowed.CompareAndSwap(false, true) {
			var job map[string]any
			if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
				t.Error(err)
			}
			job["shard_hi"] = job["shard_hi"].(float64) - 1
			body, _ := json.Marshal(job)
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		}
		worker.ServeHTTP(w, r)
	})
}

// dropSettingFromFirstResult drops the last per-setting row from the first
// result line (editFirstResult).
func dropSettingFromFirstResult(t *testing.T, worker http.Handler) http.Handler {
	return editFirstResult(t, worker, func(br *core.BatchResult) {
		br.PerSetting = br.PerSetting[:len(br.PerSetting)-1]
	})
}

// moveFirstDetection moves the first detection on the first result line
// (editFirstResult) to a node far outside the network, which a caller
// printing node names would index out of range.
func moveFirstDetection(t *testing.T, worker http.Handler) http.Handler {
	return editFirstResult(t, worker, func(br *core.BatchResult) {
		if j := slices.Index(br.Detected, true); j >= 0 {
			br.Detections[j].Output = 1 << 20
		} else {
			t.Error("the first result line detects nothing")
		}
	})
}

// moveFirstDetectionPattern moves the first detection on the first result
// line (editFirstResult) to a pattern far outside the sequence, which a
// caller printing the pattern's name would index out of range.
func moveFirstDetectionPattern(t *testing.T, worker http.Handler) http.Handler {
	return editFirstResult(t, worker, func(br *core.BatchResult) {
		if j := slices.Index(br.Detected, true); j >= 0 {
			br.Detections[j].Pattern = 1 << 20
		} else {
			t.Error("the first result line detects nothing")
		}
	})
}

// editFirstResult is a shim in front of a worker that applies edit to the
// batch on the result line of the first stream it forwards, leaving every
// other line and field as the worker sent it.
func editFirstResult(t *testing.T, worker http.Handler, edit func(*core.BatchResult)) http.Handler {
	var edited atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/stream") || !edited.CompareAndSwap(false, true) {
			worker.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		worker.ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		for _, line := range bytes.SplitAfter(rec.Body.Bytes(), []byte("\n")) {
			var l struct {
				Type   string         `json:"type"`
				Result *server.Result `json:"result"`
			}
			if json.Unmarshal(line, &l) == nil && l.Type == "result" {
				edit(l.Result.Batch)
				var err error
				if line, err = json.Marshal(l); err != nil {
					t.Error(err)
				}
				line = append(line, '\n')
			}
			w.Write(line)
		}
	})
}

// TestShortBatchIsRetried: a worker that answers a shard with a result of
// the wrong shape — one fault narrower than the window, one setting short
// of the sequence, or a detection at a node outside the network or at a
// pattern outside the sequence — costs
// the shard that attempt: the ledger refuses the result by name where it
// arrives, the shard runs again, and the merge is the monolithic one.
func TestShortBatchIsRetried(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 32)

	for _, tc := range []struct {
		name string
		shim func(*testing.T, http.Handler) http.Handler
	}{
		{"window", narrowFirstJob},
		{"settings", dropSettingFromFirstResult},
		{"output", moveFirstDetection},
		{"pattern", moveFirstDetectionPattern},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mgr := server.NewManager(server.Config{MaxJobs: 2, StreamInterval: 2 * time.Millisecond})
			ts := httptest.NewServer(tc.shim(t, mgr.Handler()))
			t.Cleanup(func() {
				ts.Close()
				mgr.Close()
			})

			var mu sync.Mutex
			var refused []string
			got, err := distrib.Run(context.Background(), spec, distrib.Options{
				Workers:   []string{ts.URL},
				BatchSize: 32,
				Recording: rec,
				Logf: func(format string, args ...any) {
					for _, a := range args {
						if err, ok := a.(error); ok && errors.Is(err, campaign.ErrBatchShape) {
							mu.Lock()
							refused = append(refused, err.Error())
							mu.Unlock()
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(refused) != 1 {
				t.Fatalf("the ledger refused %d results, want the one short batch: %q", len(refused), refused)
			}
			if got.BatchesRun != got.Batches {
				t.Errorf("batches: %d run of %d", got.BatchesRun, got.Batches)
			}
			assertIdentical(t, got, want)
		})
	}
}

// TestFailedShardJobIsRetried: a shard whose stream ends in a failed
// terminal snapshot is reported with the worker's error, runs again, and
// the merge is the monolithic one.
func TestFailedShardJobIsRetried(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 32)

	mgr := server.NewManager(server.Config{MaxJobs: 2, StreamInterval: 2 * time.Millisecond})
	worker := mgr.Handler()
	var failed atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/stream") && failed.CompareAndSwap(false, true) {
			io.WriteString(w, `{"type":"snapshot","state":"failed","error":"injected failure"}`+"\n")
			return
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})

	var mu sync.Mutex
	var logs []string
	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   []string{ts.URL},
		BatchSize: 32,
		Recording: rec,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(logs, "\n"), "ended failed: injected failure") {
		t.Errorf("no shard failure names the worker's error; log:\n%s", strings.Join(logs, "\n"))
	}
	assertIdentical(t, got, want)
}

// TestCoverageTargetStopsEarly: a cluster-wide coverage target stops
// dispatch, lets the shards already on a worker finish, and reports the
// rest skipped with the target actually met. On a shuffled universe cut
// into batches of 16, every index the merged progress streamed as newly
// detected is a fault the result reports detected, at that pattern and
// setting — so no shard whose detections were counted merged as skipped.
func TestCoverageTargetStopsEarly(t *testing.T) {
	spec := server.JobSpec{
		Workload:       "ram64",
		Sequence:       "sequence1",
		CoverageTarget: 0.25,
	}
	wl, err := server.ResolveSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	faults := wl.Faults
	rand.New(rand.NewSource(3)).Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
	var list strings.Builder
	if err := fault.WriteList(&list, wl.Net, faults); err != nil {
		t.Fatal(err)
	}
	spec.Faults = list.String()

	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 2})
	var events []campaign.ProgressEvent // Progress is serialized
	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   urls,
		BatchSize: 16,
		InFlight:  1,
		Progress:  func(ev campaign.ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Coverage() < 0.25 {
		t.Fatalf("coverage %v below target", got.Coverage())
	}
	if got.BatchesRun+got.BatchesSkipped != got.Batches {
		t.Fatalf("batch accounting: %d run + %d skipped != %d",
			got.BatchesRun, got.BatchesSkipped, got.Batches)
	}
	skipped := 0
	for _, o := range got.PerFault {
		if o.Skipped {
			skipped++
		}
	}
	if got.BatchesSkipped > 0 && skipped == 0 {
		t.Errorf("%d batches skipped but no fault marked skipped", got.BatchesSkipped)
	}
	streamed := 0
	for _, ev := range events {
		for _, fi := range ev.NewlyDetected {
			streamed++
			if o := got.PerFault[fi]; !o.Detected || o.Detection.Pattern != ev.Pattern || o.Detection.Setting != ev.Setting {
				t.Fatalf("shard %d streamed fault %d as detected at %d/%d; the result has %+v",
					ev.Batch, fi, ev.Pattern, ev.Setting, o)
			}
		}
	}
	if streamed == 0 {
		t.Error("no shard streamed a detection")
	}
}

// TestCancelPropagates: cancelling the coordinator context cancels the
// outstanding worker jobs (none left running) and returns the context
// error.
func TestCancelPropagates(t *testing.T) {
	spec := server.JobSpec{Workload: "ram256", Sequence: "sequence1", FaultModel: "paper"}
	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 1})

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	res, err := distrib.Run(ctx, spec, distrib.Options{
		Workers:   urls,
		BatchSize: 64,
		Progress: func(campaign.ProgressEvent) {
			once.Do(cancel)
		},
	})
	if err == nil || res != nil {
		t.Fatalf("cancelled run returned (%v, %v)", res, err)
	}
	if ctx.Err() == nil {
		t.Fatal("context not cancelled")
	}
}

// TestRunValidation: misconfigurations fail fast.
func TestRunValidation(t *testing.T) {
	if _, err := distrib.Run(context.Background(), ram256Spec(), distrib.Options{}); err == nil {
		t.Error("no workers: want error")
	}
	shard := ram256Spec()
	shard.ShardLo, shard.ShardHi = 0, 8
	if _, err := distrib.Run(context.Background(), shard, distrib.Options{Workers: []string{"http://x"}}); err == nil {
		t.Error("shard spec: want error")
	}
	bad := server.JobSpec{Workload: "ram1024"}
	if _, err := distrib.Run(context.Background(), bad, distrib.Options{Workers: []string{"http://x"}}); err == nil {
		t.Error("bad workload: want error")
	}
}

// TestEarlyStopDoubleCancelNoLeak: the coverage-target early stop fires
// the coordinator's internal cancel while the caller's context is
// cancelled at the same moment (double cancel), with shards still being
// dispatched. The run must return the early-stopped result (the target
// was met before the caller's cancel), every outstanding worker job must
// be cancelled, and no coordinator goroutine may outlive Run.
func TestEarlyStopDoubleCancelNoLeak(t *testing.T) {
	spec := server.JobSpec{
		Workload:       "ram64",
		Sequence:       "sequence1",
		FaultModel:     "paper",
		CoverageTarget: 0.2,
	}
	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 2})

	// Baseline after the worker pool is up: what must remain is the test
	// plus the pool's own idle machinery, not anything Run spawned. The
	// dedicated client lets the test drop its keep-alive connections
	// afterwards (each idle connection pins a server-side goroutine).
	before := runtime.NumGoroutine()
	client := &http.Client{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	got, err := distrib.Run(ctx, spec, distrib.Options{
		Workers:   urls,
		BatchSize: 16, // many small shards: the stop fires mid-dispatch
		InFlight:  2,
		Client:    client,
		Progress: func(ev campaign.ProgressEvent) {
			// Race the caller's cancel against the internal early stop.
			if ev.Coverage() >= 0.2 {
				once.Do(cancel)
			}
		},
	})
	if err != nil {
		t.Fatalf("double-cancelled early stop returned error: %v", err)
	}
	if got.Coverage() < 0.2 {
		t.Fatalf("coverage %v below target", got.Coverage())
	}
	if got.BatchesRun+got.BatchesSkipped != got.Batches {
		t.Fatalf("batch accounting: %d run + %d skipped != %d",
			got.BatchesRun, got.BatchesSkipped, got.Batches)
	}

	// Goroutine count must settle back: the shard pool, streams, the
	// workers' own job goroutines, and (after dropping the client's
	// keep-alive connections) the per-connection server goroutines all
	// wind down. Retry while they drain.
	client.CloseIdleConnections()
	settle(t, before)
}

// settle waits up to five seconds for the goroutine count to fall back to
// within two of before, and fails the test with every stack if it does
// not.
func settle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestAllWorkersDeadFails: when every worker refuses connections, each is
// abandoned after its run of consecutive failures, and the campaign fails
// by name within seconds, leaving no goroutine behind.
func TestAllWorkersDeadFails(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(http.NotFoundHandler())
		urls = append(urls, ts.URL)
		ts.Close() // the port now refuses connections
	}
	spec := server.JobSpec{Workload: "ram64", Sequence: "sequence1"}
	_, rec := resolveAndRecord(t, spec)

	before := runtime.NumGoroutine()
	client := &http.Client{}
	start := time.Now()
	res, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   urls,
		BatchSize: 16,
		Recording: rec,
		Client:    client,
	})
	if err == nil || res != nil || !strings.Contains(err.Error(), "all workers unavailable") {
		t.Fatalf("Run over dead workers returned (%v, %v), want an error naming all workers unavailable", res, err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("failing took %v", d)
	}
	client.CloseIdleConnections()
	settle(t, before)
}

// TestDistributedCheckpointResumes: a distributed campaign keeps the
// local campaign's checkpoint log. Cancelled once k shards are done, it
// leaves at least k batches in the log; a second distributed run resumes
// them and merges to the monolithic result; a local campaign on the same
// log runs nothing and merges the same; and one worker with one shard in
// flight writes the very bytes a one-shard local campaign writes.
func TestDistributedCheckpointResumes(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 32)
	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 2})
	dir := t.TempDir()
	ck := filepath.Join(dir, "dist.ck")
	local := func(path string, shards int) *campaign.Result {
		t.Helper()
		res, err := campaign.Run(context.Background(), wl.Net, wl.Faults, wl.Seq, campaign.Options{
			Sim:            spec.SimOptions(wl),
			BatchSize:      32,
			Shards:         shards,
			Recording:      rec,
			Tables:         wl.Tables,
			CheckpointPath: path,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(who string, got *campaign.Result) {
		t.Helper()
		if !reflect.DeepEqual(got.Run, want.Run) || !reflect.DeepEqual(got.PerFault, want.PerFault) {
			t.Errorf("%s: the resumed merge differs from the monolithic one", who)
		}
	}

	const k = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := distrib.Run(ctx, spec, distrib.Options{
		Workers:        urls,
		BatchSize:      32,
		Recording:      rec,
		CheckpointPath: ck,
		Progress: func(ev campaign.ProgressEvent) {
			if ev.BatchesDone >= k {
				cancel()
			}
		},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled run returned %v", err)
	}

	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:        urls,
		BatchSize:      32,
		Recording:      rec,
		CheckpointPath: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.BatchesResumed < k || got.BatchesResumed+got.BatchesRun != got.Batches {
		t.Errorf("distributed resume: %d run, %d resumed of %d; want at least %d resumed",
			got.BatchesRun, got.BatchesResumed, got.Batches, k)
	}
	same("distributed resume", got)
	if res := local(ck, 0); res.BatchesRun != 0 || res.BatchesResumed != res.Batches {
		t.Errorf("local resume of the distributed log: %d run, %d resumed of %d", res.BatchesRun, res.BatchesResumed, res.Batches)
	} else {
		same("local resume", res)
	}

	one, mono := filepath.Join(dir, "one.ck"), filepath.Join(dir, "mono.ck")
	if _, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:        urls[:1],
		InFlight:       1,
		BatchSize:      32,
		Recording:      rec,
		CheckpointPath: one,
	}); err != nil {
		t.Fatal(err)
	}
	local(mono, 1)
	a, errA := os.ReadFile(one)
	b, errB := os.ReadFile(mono)
	if err := errors.Join(errA, errB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("one worker, one shard in flight wrote %d bytes of log; one local shard wrote %d other bytes", len(a), len(b))
	}
}

// countingTransport keeps the recording uploads each worker receives.
type countingTransport struct {
	mu   sync.Mutex
	puts map[string][][]byte // bodies by worker host
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/recordings/") {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		ct.mu.Lock()
		ct.puts[req.URL.Host] = append(ct.puts[req.URL.Host], body)
		ct.mu.Unlock()
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestSecondRunReusesRecording: the fingerprint names the trajectory, not
// the capture. A first run that records the good circuit straight into
// its wire form uploads exactly the bytes of the recording core.Record
// captures; a second run, handed that recording, finds it on the workers
// and uploads nothing.
func TestSecondRunReusesRecording(t *testing.T) {
	spec := ram256Spec()
	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 2})
	ct := &countingTransport{puts: map[string][][]byte{}}
	client := &http.Client{Transport: ct}
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 16)

	for run, given := range []*switchsim.Recording{nil, rec} {
		got, err := distrib.Run(context.Background(), spec, distrib.Options{
			Workers:   urls,
			BatchSize: 16,
			Recording: given,
			Client:    client,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, got, want)
		ct.mu.Lock()
		for _, u := range urls {
			if n := len(ct.puts[strings.TrimPrefix(u, "http://")]); n != 1 {
				t.Errorf("after run %d: %d PUT /recordings/ to %s, want the first run's 1", run+1, n, u)
			}
		}
		ct.mu.Unlock()
	}
	var encoded bytes.Buffer
	if err := rec.Encode(&encoded); err != nil {
		t.Fatal(err)
	}
	for host, bodies := range ct.puts {
		for _, body := range bodies {
			if !bytes.Equal(body, encoded.Bytes()) {
				t.Errorf("%s received %d bytes, not the %d of rec.Encode", host, len(body), encoded.Len())
			}
		}
	}
}

// evictingTransport stands between the coordinator and its workers. It
// counts the recording uploads and 409s each worker answers, and on the
// second shard job submitted to the worker at evict — with one shard in
// flight per worker, after that worker's first shard result — it first
// deletes the worker's recording, as a restart or a store eviction would.
type evictingTransport struct {
	evict string // host

	mu        sync.Mutex
	fp        string
	puts      map[string]int
	conflicts map[string]int
	posts     int
}

func (et *evictingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	et.mu.Lock()
	switch {
	case req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/recordings/"):
		et.fp = strings.TrimPrefix(req.URL.Path, "/recordings/")
		et.puts[host]++
	case req.Method == http.MethodPost && req.URL.Path == "/jobs" && host == et.evict:
		if et.posts++; et.posts == 2 {
			del, err := http.NewRequest(http.MethodDelete, "http://"+host+"/recordings/"+et.fp, nil)
			if err != nil {
				et.mu.Unlock()
				return nil, err
			}
			resp, err := http.DefaultTransport.RoundTrip(del)
			if err != nil {
				et.mu.Unlock()
				return nil, err
			}
			resp.Body.Close()
		}
	}
	et.mu.Unlock()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusConflict {
		et.mu.Lock()
		et.conflicts[host]++
		et.mu.Unlock()
	}
	return resp, err
}

// logLines is a distrib.Options.Logf that keeps the coordinator's lines
// as well as logging them.
type logLines struct {
	t     *testing.T
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.t.Log(line)
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
}

// matching returns the kept lines that match the pattern.
func (l *logLines) matching(pattern string) []string {
	re := regexp.MustCompile(pattern)
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		if re.MatchString(line) {
			out = append(out, line)
		}
	}
	return out
}

// TestLostRecordingIsUploadedAgain: a worker that loses the recording
// mid-campaign answers the next shard job with 409. The shard runs on the
// other worker, the failure is charged to the worker — and logged as the
// worker's failure, not as one of the shard's attempts — and the next
// shard sent there uploads the recording again — once — so the campaign
// still merges to the monolithic result.
//
// The worker that loses it is the second slot's home. The first slot's
// first shard is the campaign's costliest (the universe is cut in site
// order), so the second slot reaches its second shard early and a shard
// is still queued for it after the retry, however the two slots race.
func TestLostRecordingIsUploadedAgain(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 8)
	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 2})
	hosts := []string{strings.TrimPrefix(urls[0], "http://"), strings.TrimPrefix(urls[1], "http://")}
	et := &evictingTransport{evict: hosts[1], puts: map[string]int{}, conflicts: map[string]int{}}
	log := &logLines{t: t}

	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   urls,
		InFlight:  1,
		BatchSize: 8,
		Recording: rec,
		Client:    &http.Client{Transport: et},
		Logf:      log.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
	if got.BatchesRun != got.Batches {
		t.Errorf("batches: %d run of %d", got.BatchesRun, got.Batches)
	}
	et.mu.Lock()
	defer et.mu.Unlock()
	if et.posts < 3 {
		t.Fatalf("%d shard jobs went to %s: too few to see the recording uploaded again", et.posts, hosts[1])
	}
	for wi, want := range []struct{ puts, conflicts int }{{1, 0}, {2, 1}} {
		h := hosts[wi]
		if et.puts[h] != want.puts || et.conflicts[h] != want.conflicts {
			t.Errorf("worker %d: %d uploads and %d 409s, want %d and %d",
				wi, et.puts[h], et.conflicts[h], want.puts, want.conflicts)
		}
	}
	conflict := `shard \d+ failed on ` + regexp.QuoteMeta(urls[1]) + ` \(worker failure 1 of \d+\): POST /jobs: 409 Conflict`
	if lines := log.matching(conflict); len(lines) != 1 {
		t.Errorf("%d log lines charge the 409 to the worker's first failure, want 1: %q", len(lines), lines)
	}
	if lines := log.matching(`\(attempt `); len(lines) != 0 {
		t.Errorf("the 409 was logged as a shard attempt: %q", lines)
	}
}

// cuttingTransport cuts the NDJSON stream of one shard job mid-line, once,
// when cut is set: it reads the first stream through to its end, hands the
// coordinator the bytes up to the middle of the last line — the result
// line, which carries the batch — and then fails the read, as a dropped
// connection would. Every other stream passes whole.
type cuttingTransport struct {
	cut bool

	mu      sync.Mutex
	streams int
	cuts    int
}

func (ct *cuttingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.Method != http.MethodGet || !strings.HasSuffix(req.URL.Path, "/stream") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	ct.mu.Lock()
	ct.streams++
	cutThis := ct.cut && ct.cuts == 0
	if cutThis {
		ct.cuts++
	}
	ct.mu.Unlock()
	if !cutThis {
		return resp, nil
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	last := bytes.LastIndexByte(bytes.TrimSuffix(data, []byte("\n")), '\n') + 1
	mid := last + (len(data)-last)/2
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(data[:mid]), iotest.ErrReader(io.ErrUnexpectedEOF)))
	return resp, nil
}

// checkCut is the "a stream was cut" check: exactly one stream was cut,
// the coordinator charged the shard an attempt for it, naming the stream
// as broken by the read error that cut it (the half line is never parsed),
// and the shard ran once more.
func checkCut(ct *cuttingTransport, log *logLines, batches int) error {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.cuts != 1 {
		return fmt.Errorf("%d streams were cut, want 1", ct.cuts)
	}
	if lines := log.matching(`\(attempt 1 of \d+\): `); len(lines) != 1 {
		return fmt.Errorf("%d log lines charge a shard its first attempt, want 1: %q", len(lines), lines)
	}
	if lines := log.matching(`\(attempt 1 of \d+\): stream from \S+ broke: unexpected EOF$`); len(lines) != 1 {
		return fmt.Errorf("the charged attempt is not logged as a broken stream: %q", log.matching(`\(attempt 1 of `))
	}
	if ct.streams != batches+1 {
		return fmt.Errorf("%d streams for %d batches, want one more for the retried shard", ct.streams, batches)
	}
	return nil
}

// TestCutStreamIsRetried: a shard job's stream cut mid-line costs the shard
// one attempt, the shard runs again, and the campaign still merges to the
// monolithic result — the half result line is never taken for a batch.
// The control runs the same shim set to cut nothing, and the check that a
// stream was cut must then fail.
func TestCutStreamIsRetried(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 16)
	for _, cut := range []bool{true, false} {
		name := map[bool]string{true: "cut", false: "control"}[cut]
		t.Run(name, func(t *testing.T) {
			urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 2})
			ct := &cuttingTransport{cut: cut}
			log := &logLines{t: t}
			got, err := distrib.Run(context.Background(), spec, distrib.Options{
				Workers:   urls,
				BatchSize: 16,
				Recording: rec,
				Client:    &http.Client{Transport: ct},
				Logf:      log.logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, got, want)
			err = checkCut(ct, log, got.Batches)
			if cut && err != nil {
				t.Fatal(err)
			}
			if !cut && err == nil {
				t.Fatal("with nothing cut, the check that a stream was cut passed")
			}
		})
	}
}
