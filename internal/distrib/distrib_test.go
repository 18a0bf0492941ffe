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
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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
// batches of 16 so the kill lands mid-queue, requeues its shards onto the
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

// dropSettingFromFirstResult is a shim in front of a worker that drops the
// last per-setting row from the batch on the result line of the first
// stream it forwards, leaving every other line and field as the worker
// sent it.
func dropSettingFromFirstResult(t *testing.T, worker http.Handler) http.Handler {
	var dropped atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/stream") || !dropped.CompareAndSwap(false, true) {
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
				br := l.Result.Batch
				br.PerSetting = br.PerSetting[:len(br.PerSetting)-1]
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
// the wrong shape — one fault narrower than the window, or one setting
// short of the sequence — costs the shard that attempt: the ledger refuses
// the result by name where it arrives, the shard runs again, and the merge
// is the monolithic one.
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

	// Goroutine count must settle back: the slot pool, streams, the
	// workers' own job goroutines, and (after dropping the client's
	// keep-alive connections) the per-connection server goroutines all
	// wind down. Retry while they drain.
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// countingTransport counts the recording uploads each worker receives.
type countingTransport struct {
	mu   sync.Mutex
	puts map[string]int // by worker host
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/recordings/") {
		ct.mu.Lock()
		ct.puts[req.URL.Host]++
		ct.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestSecondRunReusesRecording: the fingerprint names the trajectory, not
// the capture, so a campaign over a circuit and sequence the workers have
// already seen uploads nothing — even though its coordinator recorded the
// good circuit afresh, with wall-clock figures of its own.
func TestSecondRunReusesRecording(t *testing.T) {
	spec := ram256Spec()
	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 2})
	ct := &countingTransport{puts: map[string]int{}}
	client := &http.Client{Transport: ct}

	for run, wantPuts := range []int{1, 0} {
		wl, rec := resolveAndRecord(t, spec) // a fresh capture each run
		want := monolithic(t, wl, rec, 16)
		ct.mu.Lock()
		clear(ct.puts)
		ct.mu.Unlock()
		got, err := distrib.Run(context.Background(), spec, distrib.Options{
			Workers:   urls,
			BatchSize: 16,
			Recording: rec,
			Client:    client,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, got, want)
		ct.mu.Lock()
		for _, u := range urls {
			if n := ct.puts[strings.TrimPrefix(u, "http://")]; n != wantPuts {
				t.Errorf("run %d: %d PUT /recordings/ to %s, want %d", run+1, n, u, wantPuts)
			}
		}
		ct.mu.Unlock()
	}
}
