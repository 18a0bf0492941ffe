package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"fmossim/internal/core"
	"fmossim/internal/netlist"
)

// ram64Shard is the spec of a shard job over the window [lo, lo+64) of
// RAM64's paper universe, sequence 1, on one simulator worker.
func ram64Shard(lo int) JobSpec {
	return JobSpec{Workload: "ram64", ShardLo: lo, ShardHi: lo + 64, IncludeBatch: true, Workers: 1}
}

// submitDone submits spec and waits for the job to finish done.
func submitDone(t *testing.T, m *Manager, spec JobSpec) *Job {
	t.Helper()
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	return job
}

// waitState polls a job to a terminal state and returns it.
func waitState(t *testing.T, job *Job) State {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !job.Snapshot().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q", job.ID, job.Snapshot().State)
		}
		time.Sleep(time.Millisecond)
	}
	return job.Snapshot().State
}

// getBody returns the body of GET url.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	return body
}

// resultLine returns the result line of a finished job's stream.
func resultLine(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	body := getBody(t, ts.URL+"/jobs/"+id+"/stream")
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"type":"result"`)) {
			return sc.Bytes()
		}
	}
	t.Fatalf("job %s: no result line in %d bytes of stream", id, len(body))
	return nil
}

// TestRetainedShardResultSurvivesRearm: a finished shard job's result is
// encoded once, as it finishes, and its rows go back to the runner's
// slot. After three later shard jobs have re-armed that slot and refilled
// those rows, GET /jobs/{id} and the stream's result line of the first
// job are byte for byte what they were when it finished: the held result
// shares no memory with the slot.
func TestRetainedShardResultSurvivesRearm(t *testing.T) {
	m := NewManager(Config{MaxJobs: 1, StreamInterval: time.Millisecond})
	ts := httptest.NewServer(m.Handler())
	defer func() {
		ts.Close()
		m.Close()
	}()

	first := submitDone(t, m, ram64Shard(0))
	get, line := getBody(t, ts.URL+"/jobs/"+first.ID), resultLine(t, ts, first.ID)
	if !bytes.Contains(get, []byte(`"batch":"`)) {
		t.Fatalf("GET /jobs/%s carries no batch", first.ID)
	}
	for lo := 64; lo < 4*64; lo += 64 {
		submitDone(t, m, ram64Shard(lo))
	}
	if again := getBody(t, ts.URL+"/jobs/"+first.ID); !bytes.Equal(again, get) {
		t.Fatalf("GET /jobs/%s changed after later jobs re-armed the slot (%d bytes, then %d)", first.ID, len(get), len(again))
	}
	if again := resultLine(t, ts, first.ID); !bytes.Equal(again, line) {
		t.Fatalf("the result line of %s changed after later jobs re-armed the slot (%d bytes, then %d)", first.ID, len(line), len(again))
	}
}

// TestSlotAfterStoppedJob: a runner's slot that ran a job cancelled
// mid-run, then a job that failed as the slot was re-armed for it (an
// observed node outside the network), runs the next job exactly as a
// fresh Manager does — the same result bytes — and its batch keeps its
// invariants after a Reset.
func TestSlotAfterStoppedJob(t *testing.T) {
	m := NewManager(Config{MaxJobs: 1})
	defer m.Close()
	submitDone(t, m, ram64Shard(0))

	// The whole universe in one never-dropping batch runs for seconds; the
	// job behind it is broken before the runner reaches it.
	stop, err := m.Submit(JobSpec{Workload: "ram64", BatchSize: 1 << 12, Shards: 1, Workers: 1, Drop: "never"})
	if err != nil {
		t.Fatal(err)
	}
	fail, err := m.Submit(ram64Shard(64))
	if err != nil {
		t.Fatal(err)
	}
	fail.mu.Lock()
	fail.wl.Observe = []netlist.NodeID{-1}
	fail.mu.Unlock()
	for stop.Snapshot().Events < 3 {
		time.Sleep(100 * time.Microsecond)
	}
	m.Cancel(stop.ID)
	if st := waitState(t, stop); st != StateCancelled {
		t.Fatalf("the stopped job ended %s", st)
	}
	if st := waitState(t, fail); st != StateFailed {
		t.Fatalf("the broken job ended %s", st)
	}

	// The runner stored its slots before either job turned terminal.
	entry := m.cache.builtin(&JobSpec{Workload: "ram64"})
	slots := m.slots[0][entry]
	if len(slots) != 1 || slots[0] == nil {
		t.Fatalf("the runner holds %d slots for RAM64 after the stopped jobs", len(slots))
	}
	b := slots[0]
	wl, err := entry.workload(&JobSpec{Workload: "ram64"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reset(wl.Faults[128:192], core.Options{Observe: wl.Observe, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("the slot after a cancelled and a failed job, re-armed: %v", err)
	}

	next := submitDone(t, m, ram64Shard(128))
	if m.slots[0][entry][0] != b {
		t.Fatal("the next job did not re-arm the runner's slot")
	}
	fresh := NewManager(Config{MaxJobs: 1})
	defer fresh.Close()
	want := submitDone(t, fresh, ram64Shard(128)).Result().batch
	if got := next.Result().batch; len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("the slot's next job encodes %d bytes, a fresh Manager's %d, and they differ", len(got), len(want))
	}
}

// TestWarmShardJobAllocatesNoTable: the second RAM64 shard job on a
// Manager re-arms the runner's slot, which fills the row tables the first
// job's result handed back, so the whole job — submission, replay,
// encoding — allocates less than one per-setting table of the sequence.
// A job that built its batch or its tables afresh would allocate more
// than that on its own.
func TestWarmShardJobAllocatesNoTable(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow allocations blur the count")
	}
	m := NewManager(Config{MaxJobs: 1})
	defer m.Close()
	first := submitDone(t, m, ram64Shard(0))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second := submitDone(t, m, ram64Shard(64))
	runtime.ReadMemStats(&after)

	wl, err := ResolveSpec(&JobSpec{Workload: "ram64"})
	if err != nil {
		t.Fatal(err)
	}
	table := uint64(wl.Seq.NumSettings()) * uint64(unsafe.Sizeof(core.SettingStats{}))
	job := after.TotalAlloc - before.TotalAlloc
	t.Logf("RAM64 sequence 1, %d settings: second shard job %d B (its encoded result %d B), one per-setting table %d B",
		wl.Seq.NumSettings(), job, len(second.Result().batch), table)
	if len(first.Result().batch) == 0 || job >= table {
		t.Fatalf("the second shard job allocates %d B, not less than one %d B per-setting table", job, table)
	}
}

// TestRunnerKeepsFairShareSlots: a runner keeps at most fairShare()
// slots per built-in circuit entry, whatever shard count its jobs asked
// for, holds no batch past them, and keeps none for an inline circuit.
func TestRunnerKeepsFairShareSlots(t *testing.T) {
	m := NewManager(Config{MaxJobs: 2})
	share := m.fairShare()
	for _, spec := range []JobSpec{
		{Workload: "ram64", MaxPatterns: 6, BatchSize: 32, Shards: share + 2, Workers: 1},
		{Workload: "ram64", Sequence: "sequence2", MaxPatterns: 6, BatchSize: 32, Shards: share + 2, Workers: 1},
		{Netlist: chainNet, Patterns: chainPatterns, Observe: []string{"out"}, Shards: 2},
		{Workload: "ram64", MaxPatterns: 6, BatchSize: 32, Shards: share + 3, Workers: 1},
	} {
		submitDone(t, m, spec)
	}
	m.Close() // the runners have stopped: their slots are the test's to read

	kept := 0
	for r, held := range m.slots {
		for e, slots := range held {
			if e == nil {
				t.Errorf("runner %d keeps slots for an inline circuit", r)
			}
			if len(slots) > share {
				t.Errorf("runner %d keeps %d slots for one entry, its fair share is %d", r, len(slots), share)
			}
			for _, b := range slots[len(slots):cap(slots)] {
				if b != nil {
					t.Errorf("runner %d keeps a batch past its share", r)
				}
			}
			for _, b := range slots {
				if b != nil {
					kept++
				}
			}
		}
	}
	if kept == 0 {
		t.Fatal("no runner kept a slot between jobs")
	}
}

// chainNet and chainPatterns are a two-inverter chain and two patterns
// toggling its input: an inline circuit.
const chainNet = `scale 1 1
input in 0
node mid
node out
d mid Vdd mid
n in mid Gnd
d out Vdd out
n mid out Gnd
`

const chainPatterns = `in=0
in=1
pattern p1
in=0
in=1
`
