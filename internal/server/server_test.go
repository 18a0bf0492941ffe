package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// invNet is a two-inverter chain: a tiny inline workload for lifecycle
// tests. Faults on the internal node are observable at out.
const invNet = `scale 1 1
input in 0
node mid
node out
d mid Vdd mid
n in mid Gnd
d out Vdd out
n mid out Gnd
`

// invPatterns toggles the input across two patterns.
const invPatterns = `in=0
in=1
pattern p1
in=0
in=1
`

func newTestServer(t *testing.T, cfg server.Config) (*server.Manager, *httptest.Server) {
	t.Helper()
	if cfg.StreamInterval == 0 {
		cfg.StreamInterval = 2 * time.Millisecond
	}
	mgr := server.NewManager(cfg)
	ts := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return mgr, ts
}

func submit(t *testing.T, ts *httptest.Server, spec map[string]any) (server.Snapshot, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.Snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return snap, resp
}

// getStatus fetches one job's snapshot + result.
func getStatus(t *testing.T, ts *httptest.Server, id string) (server.Snapshot, *server.Result) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %s", id, resp.Status)
	}
	var st struct {
		server.Snapshot
		Result *server.Result `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Snapshot, st.Result
}

func waitState(t *testing.T, ts *httptest.Server, id string, want server.State, timeout time.Duration) server.Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		snap, _ := getStatus(t, ts, id)
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %q (err %q), want %q", id, snap.State, snap.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// streamLine mirrors the NDJSON line shape.
type streamLine struct {
	Type     string         `json:"type"`
	State    server.State   `json:"state"`
	Coverage float64        `json:"coverage"`
	Detected int            `json:"detected"`
	Pattern  int            `json:"pattern"`
	Setting  int            `json:"setting"`
	Faults   []int          `json:"faults"`
	Result   *server.Result `json:"result"`
}

func readStream(t *testing.T, ts *httptest.Server, id string) []streamLine {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestJobRoundTrip: submit an inline-netlist job, stream it to
// completion, and check the stream invariants — monotonic coverage
// snapshots, detection groups summing to the final count, a terminal
// result line — plus the status endpoint.
func TestJobRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	snap, resp := submit(t, ts, map[string]any{
		"netlist":  invNet,
		"patterns": invPatterns,
		"observe":  []string{"out"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if snap.ID == "" || snap.State != server.StateQueued {
		t.Fatalf("snapshot = %+v", snap)
	}

	lines := readStream(t, ts, snap.ID)
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	var result *server.Result
	cov := -1.0
	streamedDetections := 0
	for _, l := range lines {
		switch l.Type {
		case "snapshot":
			if l.Coverage < cov {
				t.Fatalf("coverage regressed: %v -> %v", cov, l.Coverage)
			}
			cov = l.Coverage
		case "detections":
			streamedDetections += len(l.Faults)
		case "result":
			result = l.Result
		default:
			t.Fatalf("unknown stream line type %q", l.Type)
		}
	}
	if result == nil {
		t.Fatal("stream ended without a result line")
	}
	if result.Detected == 0 || result.Coverage <= 0 {
		t.Fatalf("expected detections on the inverter chain, got %+v", result)
	}
	if streamedDetections != result.Detected {
		t.Fatalf("streamed %d detection events, result says %d", streamedDetections, result.Detected)
	}

	st, res := getStatus(t, ts, snap.ID)
	if st.State != server.StateDone || res == nil || res.Detected != result.Detected {
		t.Fatalf("status after stream: %+v (result %+v)", st, res)
	}
	if st.Coverage != result.Coverage {
		t.Fatalf("status coverage %v != result %v", st.Coverage, result.Coverage)
	}

	// DELETE on a terminal job removes it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+snap.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE terminal job: %s", dresp.Status)
	}
	if gresp, err := http.Get(ts.URL + "/jobs/" + snap.ID); err != nil {
		t.Fatal(err)
	} else {
		gresp.Body.Close()
		if gresp.StatusCode != http.StatusNotFound {
			t.Fatalf("after removal: %s", gresp.Status)
		}
	}
}

// ram256Spec is the shared RAM256 workload of the concurrency test:
// sampled and truncated so eight concurrent copies stay test-sized while
// still exercising the paper's big circuit.
func ram256Spec() map[string]any {
	return map[string]any{
		"workload":          "ram256",
		"sequence":          "sequence1",
		"max_patterns":      60,
		"fault_model":       "paper",
		"sample_every":      8,
		"batch_size":        32,
		"include_per_fault": true,
	}
}

// expectedRAM256 runs the one-shot CLI path (campaign.Run, exactly what
// cmd/fmossim -batch invokes) over the same resolved workload.
func expectedRAM256(t *testing.T) (*ram.RAM, []fault.Fault, *campaign.Result) {
	t.Helper()
	m := ram.RAM256()
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:60]
	all := m.PaperFaults()
	var faults []fault.Fault
	for i := 0; i < len(all); i += 8 {
		faults = append(faults, all[i])
	}
	res, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
		Sim:       core.Options{Observe: []netlist.NodeID{m.DataOut}},
		BatchSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, faults, res
}

// TestConcurrentJobsMatchCLI: eight concurrent RAM256 jobs through the
// server produce detections and coverage bit-identical to the one-shot
// CLI path, while sharing one cached table set and recording.
func TestConcurrentJobsMatchCLI(t *testing.T) {
	m, faults, want := expectedRAM256(t)

	_, ts := newTestServer(t, server.Config{MaxJobs: 4, QueueDepth: 16})
	const jobs = 8
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		snap, resp := submit(t, ts, ram256Spec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		ids[i] = snap.ID
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			readStream(t, ts, id) // drain to completion
		}(snap.ID)
	}
	wg.Wait()

	for _, id := range ids {
		st, res := getStatus(t, ts, id)
		if st.State != server.StateDone || res == nil {
			t.Fatalf("job %s: %+v", id, st)
		}
		if res.Detected != want.Run.Detected || res.Coverage != want.Coverage() ||
			res.HardDetected != want.Run.HardDetected || res.NumFaults != len(faults) {
			t.Fatalf("job %s: detected %d coverage %v, want %d %v",
				id, res.Detected, res.Coverage, want.Run.Detected, want.Coverage())
		}
		if res.FaultWork != want.Run.FaultWork {
			t.Fatalf("job %s: fault work %d, want %d", id, res.FaultWork, want.Run.FaultWork)
		}
		if len(res.PerFault) != len(faults) {
			t.Fatalf("job %s: %d per-fault rows, want %d", id, len(res.PerFault), len(faults))
		}
		for fi, pf := range res.PerFault {
			d, ok := want.Detected(fi)
			if pf.Detected != ok {
				t.Fatalf("job %s fault %d: detected %v, want %v", id, fi, pf.Detected, ok)
			}
			if ok && (pf.Pattern != d.Pattern || pf.Setting != d.Setting ||
				pf.Output != m.Net.Name(d.Output) || pf.Hard != d.Hard ||
				pf.Good != d.Good.String() || pf.Faulty != d.Faulty.String()) {
				t.Fatalf("job %s fault %d: detection %+v, want %+v", id, fi, pf, d)
			}
		}
	}
}

// TestJobEarlyStopIndices: a job over a shuffled inline universe, cut into
// batches of 16 and stopped early by a coverage target, streams detection
// groups whose fault indices are universe indices: each is a fault the
// per-fault table reports detected at the group's pattern and setting.
func TestJobEarlyStopIndices(t *testing.T) {
	m := ram.RAM64()
	faults := m.PaperFaults()
	rand.New(rand.NewSource(5)).Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
	var list strings.Builder
	if err := fault.WriteList(&list, m.Net, faults); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{})
	snap, resp := submit(t, ts, map[string]any{
		"workload":          "ram64",
		"faults":            list.String(),
		"batch_size":        16,
		"shards":            1,
		"coverage_target":   0.3,
		"include_per_fault": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	lines := readStream(t, ts, snap.ID)
	res := lines[len(lines)-1].Result
	if res == nil || len(res.PerFault) != len(faults) {
		t.Fatalf("stream ended without a per-fault result: %+v", lines[len(lines)-1])
	}
	if res.BatchesSkipped == 0 {
		t.Fatalf("no batch skipped at a 30%% target (%d run of %d)", res.BatchesRun, res.Batches)
	}
	streamed := 0
	for _, l := range lines {
		if l.Type != "detections" {
			continue
		}
		for _, fi := range l.Faults {
			streamed++
			if pf := res.PerFault[fi]; !pf.Detected || pf.Pattern != l.Pattern || pf.Setting != l.Setting {
				t.Fatalf("fault %d streamed as detected at %d/%d; the result has %+v", fi, l.Pattern, l.Setting, pf)
			}
		}
	}
	if streamed == 0 {
		t.Fatal("no detection was streamed")
	}
}

// TestCancelRunningJob: cancelling a long-running job moves it to
// cancelled within a second and the shard/batch goroutines exit (no
// leak).
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, server.Config{MaxJobs: 2})
	before := runtime.NumGoroutine()

	// Full RAM256 paper campaign: minutes of work if not cancelled.
	snap, resp := submit(t, ts, map[string]any{
		"workload": "ram256",
		"sequence": "sequence1",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	waitState(t, ts, snap.ID, server.StateRunning, 30*time.Second)
	// Wait until batch workers are actually simulating (the first
	// campaign progress event) before cancelling: the cache-warming
	// trajectory recording that precedes the campaign is shared state,
	// not part of this job's cancellable work.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, _ := getStatus(t, ts, snap.ID)
		if st.Batches > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+snap.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job: %s", dresp.Status)
	}
	cancelled := time.Now()
	st := waitState(t, ts, snap.ID, server.StateCancelled, 5*time.Second)
	if d := time.Since(cancelled); d > time.Second {
		t.Fatalf("cancellation took %v (want < 1s); final state %+v", d, st)
	}

	// The campaign's shard goroutines and batch workers must be gone.
	// Idle HTTP keep-alive connections from this test's own polling are
	// torn down first so only simulator goroutines could remain.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines: %d before submit, %d after cancel", before, now)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQueueFullSheds: with a single runner and a one-deep queue, a third
// concurrent submission is shed with 429 and a Retry-After hint.
func TestQueueFullSheds(t *testing.T) {
	mgr, ts := newTestServer(t, server.Config{MaxJobs: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	long := map[string]any{"workload": "ram256", "sequence": "sequence1"}

	first, resp := submit(t, ts, long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %s", resp.Status)
	}
	// Make sure the first job occupies the runner (not the queue slot).
	waitState(t, ts, first.ID, server.StateRunning, 30*time.Second)

	second, resp := submit(t, ts, long)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second (queued) submit: %s", resp.Status)
	}

	_, resp = submit(t, ts, long)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	// Cancelling the queued job frees its slot immediately: it turns
	// terminal without waiting for a runner, and a new submission is
	// accepted even though the runner is still busy.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+second.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if st, _ := getStatus(t, ts, second.ID); st.State != server.StateCancelled {
		t.Fatalf("cancelled queued job: state %q, want cancelled", st.State)
	}
	if _, resp = submit(t, ts, long); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after freeing the queue slot: %s, want 202", resp.Status)
	}

	for _, snap := range mgr.List() {
		mgr.Cancel(snap.ID)
	}
}

// TestSubmitValidation: bad specs 400 with a reason instead of failing
// asynchronously.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, spec := range []map[string]any{
		{},                      // neither workload nor netlist
		{"workload": "ram1024"}, // unknown workload
		{"workload": "ram64", "sequence": "sequence9"},
		{"workload": "ram64", "netlist": invNet}, // mutually exclusive
		{"netlist": invNet},                      // missing patterns+observe
		{"workload": "ram64", "drop": "sometimes"},
		{"netlist": invNet, "patterns": invPatterns, "observe": []string{"out"},
			"fault_model": "paper"}, // paper universe needs a built-in workload
		{"workload": "ram64", "coverage_target": 1.5},
		{"workload": "ram64", "shards": -1},
		{"workload": "ram64", "bogus_field": true},               // unknown field
		{"workload": "ram64", "trim": true, "trim_probation": 3}, // removed knob: rejected, not ignored
	} {
		_, resp := submit(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %v: %s, want 400", spec, resp.Status)
		}
	}
	// "trim" switches nothing any more, but the benchmark harness still
	// posts it: it must decode, not 400 as an unknown field.
	if _, resp := submit(t, ts, map[string]any{"workload": "ram64", "max_patterns": 1, "trim": true}); resp.StatusCode != http.StatusAccepted {
		t.Errorf(`a spec with "trim": %s, want 202`, resp.Status)
	}

	// A spec that passes validation but fails resolution is refused at
	// submit too, with the reason.
	status, msg := refusal(t, ts, map[string]any{
		"netlist":  invNet,
		"patterns": invPatterns,
		"observe":  []string{"no_such_node"},
	})
	if status != http.StatusBadRequest || !strings.Contains(msg, "no_such_node") {
		t.Fatalf("unknown observed node: %d %q, want 400 naming the node", status, msg)
	}
}

// refusal submits spec and returns the status and the error message the
// server refused it with.
func refusal(t *testing.T, ts *httptest.Server, spec map[string]any) (int, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// TestHugeWorkersIsBounded: "workers" arrives from outside and only its
// sign is validated, so a batch must not build a worker per request —
// each holds a scratch circuit, a solver and node-sized arrays. A job
// asking for a billion finishes, allocating what a small job allocates.
func TestHugeWorkersIsBounded(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	snap, resp := submit(t, ts, map[string]any{"workload": "ram64", "max_patterns": 2, "workers": 1_000_000_000})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	waitState(t, ts, snap.ID, server.StateDone, 30*time.Second)
	runtime.ReadMemStats(&m1)
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("allocated %.1f MB", float64(alloc)/(1<<20))
	if alloc > 64<<20 {
		t.Fatalf("a RAM64 job of two patterns allocated %d MB", alloc>>20)
	}
}

// TestInlineMatchesDirect: an inline-netlist job's result matches running
// the same circuit directly through the library.
func TestInlineMatchesDirect(t *testing.T) {
	nw, err := netlist.Read(strings.NewReader(invNet))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := switchsim.ParseSequence(strings.NewReader(invPatterns), "patterns", nw)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.NodeStuckFaults(nw, fault.Options{})
	want, err := campaign.Run(context.Background(), nw, faults, seq, campaign.Options{
		Sim: core.Options{Observe: []netlist.NodeID{nw.MustLookup("out")}},
	})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, server.Config{})
	snap, resp := submit(t, ts, map[string]any{
		"netlist":           invNet,
		"patterns":          invPatterns,
		"observe":           []string{"out"},
		"include_per_fault": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	readStream(t, ts, snap.ID)
	_, res := getStatus(t, ts, snap.ID)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Detected != want.Run.Detected || res.Coverage != want.Coverage() {
		t.Fatalf("detected %d coverage %v, want %d %v",
			res.Detected, res.Coverage, want.Run.Detected, want.Coverage())
	}
	for fi, pf := range res.PerFault {
		if _, ok := want.Detected(fi); ok != pf.Detected {
			t.Fatalf("fault %d: detected %v, want %v", fi, pf.Detected, ok)
		}
	}
}

// TestHealthz: the liveness probe answers.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
}

// TestTerminalJobEviction: finished jobs beyond KeepTerminal are evicted
// oldest-first, bounding the daemon's memory over its lifetime.
func TestTerminalJobEviction(t *testing.T) {
	mgr, ts := newTestServer(t, server.Config{MaxJobs: 1, KeepTerminal: 2})
	spec := map[string]any{"netlist": invNet, "patterns": invPatterns, "observe": []string{"out"}}
	var ids []string
	for i := 0; i < 4; i++ {
		snap, resp := submit(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		readStream(t, ts, snap.ID) // run to completion before the next
		ids = append(ids, snap.ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(mgr.List()) > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs retained, want <= 2", len(mgr.List()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids[:2] {
		if _, ok := mgr.Get(id); ok {
			t.Errorf("oldest job %s should have been evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := mgr.Get(id); !ok {
			t.Errorf("recent job %s should be retained", id)
		}
	}
}
