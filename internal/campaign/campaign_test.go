package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// testBench builds the shared workload: a 4×4 RAM, a mixed-kind fault
// universe (node stuck-at, transistor stuck, bit-line shorts), and test
// sequence 1.
func testBench(t *testing.T) (*ram.RAM, []fault.Fault, *switchsim.Sequence) {
	t.Helper()
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	ts := fault.TransistorStuckFaults(m.Net, fault.Options{})
	if len(ts) > 30 {
		ts = ts[:30]
	}
	faults = append(faults, ts...)
	faults = append(faults, fault.BridgeFaults(m.BitlineShorts)...)
	seq := march.Sequence1(m)
	return m, faults, seq
}

// ceilDiv splits n into k near-equal parts.
func ceilDiv(n, k int) int { return (n + k - 1) / k }

// assertMatchesMonolithic compares a campaign result against the
// monolithic simulator: detections, final records, and every
// deterministic statistic must be bit-identical.
func assertMatchesMonolithic(t *testing.T, tag string, nw *netlist.Network, faults []fault.Fault, mono *core.Simulator, monoRes *core.Result, res *campaign.Result) {
	t.Helper()
	if res.BatchesSkipped != 0 {
		t.Fatalf("%s: %d batches skipped in a full campaign", tag, res.BatchesSkipped)
	}
	for fi := range faults {
		md, mok := mono.Detected(fi)
		cd, cok := res.Detected(fi)
		if mok != cok || (mok && md != cd) {
			t.Fatalf("%s: fault %s detection mismatch: mono=%+v(%v) campaign=%+v(%v)",
				tag, faults[fi].Describe(nw), md, mok, cd, cok)
		}
		if mono.Oscillated(fi) != res.PerFault[fi].Oscillated {
			t.Fatalf("%s: fault %s oscillation mismatch", tag, faults[fi].Describe(nw))
		}
		mrec := mono.Records(fi)
		crec := res.PerFault[fi].Records
		if len(mrec) != len(crec) {
			t.Fatalf("%s: fault %s has %d records mono vs %d campaign",
				tag, faults[fi].Describe(nw), len(mrec), len(crec))
		}
		for n, v := range mrec {
			if crec[n] != v {
				t.Fatalf("%s: fault %s node %s: mono=%s campaign=%s",
					tag, faults[fi].Describe(nw), nw.Name(n), v, crec[n])
			}
		}
	}

	// Aggregate statistics.
	if res.Run.Detected != monoRes.Detected || res.Run.HardDetected != monoRes.HardDetected ||
		res.Run.Oscillated != monoRes.Oscillated || res.Run.NumFaults != monoRes.NumFaults {
		t.Fatalf("%s: totals mismatch: campaign %d/%d/%d mono %d/%d/%d", tag,
			res.Run.Detected, res.Run.HardDetected, res.Run.Oscillated,
			monoRes.Detected, monoRes.HardDetected, monoRes.Oscillated)
	}
	if res.Run.GoodWork != monoRes.GoodWork || res.Run.FaultWork != monoRes.FaultWork {
		t.Fatalf("%s: work mismatch: campaign %d+%d mono %d+%d", tag,
			res.Run.GoodWork, res.Run.FaultWork, monoRes.GoodWork, monoRes.FaultWork)
	}
	if len(res.Run.PerPattern) != len(monoRes.PerPattern) {
		t.Fatalf("%s: %d patterns vs %d", tag, len(res.Run.PerPattern), len(monoRes.PerPattern))
	}
	for pi := range monoRes.PerPattern {
		if mp, cp := monoRes.PerPattern[pi], res.Run.PerPattern[pi]; mp != cp {
			t.Fatalf("%s: pattern %d stats mismatch:\nmono     %+v\ncampaign %+v", tag, pi, mp, cp)
		}
	}
}

// TestCampaignMatchesMonolithic is the batch-equivalence suite of the
// campaign engine: splitting the universe into 1, 3, and 7 batches, at
// several per-batch worker counts and shard counts, must reproduce the
// monolithic simulator's detections, records, and statistics bit for bit;
// so must batch sizes 1, 7, 8, 64 and 65, which between them put faults at
// every (word, bit) position of the packed lanes — the packing is a pure
// indexing layer: which lane a fault occupies never changes what its
// circuit computes.
func TestCampaignMatchesMonolithic(t *testing.T) {
	m, faults, seq := testBench(t)
	obs := []netlist.NodeID{m.DataOut}

	mono, err := core.New(m.Net, faults, core.Options{Observe: obs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	monoRes := mono.Run(seq)
	if monoRes.Detected == 0 {
		t.Fatal("workload detects nothing; test is vacuous")
	}

	// Record once, replay in every configuration: also proves the replay
	// path never needs the good solver again.
	rec := core.Record(m.Net, seq, core.Options{})

	run := func(tag string, batchSize, workers int) *campaign.Result {
		res, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
			Sim:       core.Options{Observe: obs, Workers: workers},
			BatchSize: batchSize,
			Shards:    2,
			Recording: rec,
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if want := ceilDiv(len(faults), batchSize); res.Batches != want {
			t.Fatalf("%s: ran %d batches, want %d", tag, res.Batches, want)
		}
		assertMatchesMonolithic(t, tag, m.Net, faults, mono, monoRes, res)
		return res
	}
	for _, nBatches := range []int{1, 3, 7} {
		for _, workers := range []int{1, 3} {
			run(fmt.Sprintf("batches=%d/workers=%d", nBatches, workers), ceilDiv(len(faults), nBatches), workers)
		}
	}

	// Batch sizes that put a fault at every kind of lane position: alone in
	// its word, in a partly filled word, on the last bit of a full word,
	// and as the only bit of a second word. Merged bytes equal the
	// one-batch run's.
	if len(faults) < 130 {
		t.Fatalf("%d faults: the one-batch run should span three lane words", len(faults))
	}
	whole := mergedJSON(t, run("one batch", len(faults), 1))
	for _, batchSize := range []int{1, 7, 8, 64, 65} {
		for _, workers := range []int{1, 4} {
			tag := fmt.Sprintf("batchsize=%d/workers=%d", batchSize, workers)
			if mergedJSON(t, run(tag, batchSize, workers)) != whole {
				t.Fatalf("%s: merged result differs from the one-batch run's bytes", tag)
			}
		}
	}
}

// TestCampaignSerializedRecording: a recording that has been round-tripped
// through its binary encoding drives a campaign to the identical result.
func TestCampaignSerializedRecording(t *testing.T) {
	m, faults, seq := testBench(t)
	obs := []netlist.NodeID{m.DataOut}

	mono, err := core.New(m.Net, faults, core.Options{Observe: obs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	monoRes := mono.Run(seq)

	var buf bytes.Buffer
	if err := core.Record(m.Net, seq, core.Options{}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := switchsim.DecodeRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
		Sim:       core.Options{Observe: obs},
		BatchSize: ceilDiv(len(faults), 4),
		Shards:    2,
		Recording: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesMonolithic(t, "serialized", m.Net, faults, mono, monoRes, res)
}

// TestCampaignCheckpointResume: a campaign with a checkpoint file resumes
// completed batches instead of re-simulating them, and the resumed merge
// equals the uninterrupted one.
func TestCampaignCheckpointResume(t *testing.T) {
	m, faults, seq := testBench(t)
	obs := []netlist.NodeID{m.DataOut}
	ckPath := filepath.Join(t.TempDir(), "campaign.ck")

	opts := campaign.Options{
		Sim:            core.Options{Observe: obs, Workers: 1},
		BatchSize:      ceilDiv(len(faults), 5),
		Shards:         2,
		CheckpointPath: ckPath,
	}
	first, err := campaign.Run(context.Background(), m.Net, faults, seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.BatchesRun != first.Batches || first.BatchesResumed != 0 {
		t.Fatalf("first run: run=%d resumed=%d of %d", first.BatchesRun, first.BatchesResumed, first.Batches)
	}
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}

	second, err := campaign.Run(context.Background(), m.Net, faults, seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.BatchesResumed != second.Batches || second.BatchesRun != 0 {
		t.Fatalf("second run: run=%d resumed=%d of %d", second.BatchesRun, second.BatchesResumed, second.Batches)
	}
	if second.Run.Detected != first.Run.Detected || second.Run.FaultWork != first.Run.FaultWork {
		t.Fatalf("resumed result differs: %d/%d vs %d/%d",
			second.Run.Detected, second.Run.FaultWork, first.Run.Detected, first.Run.FaultWork)
	}
	for fi := range faults {
		fd, fok := first.Detected(fi)
		sd, sok := second.Detected(fi)
		if fok != sok || fd != sd {
			t.Fatalf("fault %d detection differs after resume", fi)
		}
	}

	// A mismatched campaign must refuse the checkpoint: different
	// batching, a different same-sized fault universe, or different
	// result-shaping simulator options would silently attribute stale
	// batch results.
	bad := opts
	bad.BatchSize = ceilDiv(len(faults), 3)
	if _, err := campaign.Run(context.Background(), m.Net, faults, seq, bad); err == nil {
		t.Fatal("mismatched batching accepted")
	}
	swapped := append([]fault.Fault(nil), faults...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := campaign.Run(context.Background(), m.Net, swapped, seq, opts); err == nil {
		t.Fatal("same-sized but different fault universe accepted")
	}
	badDrop := opts
	badDrop.Sim.Drop = core.NeverDrop
	if _, err := campaign.Run(context.Background(), m.Net, faults, seq, badDrop); err == nil {
		t.Fatal("different drop policy accepted")
	}
}

// TestCampaignEarlyStop: with a low coverage target and serial shards,
// the campaign stops claiming batches once the target is met.
func TestCampaignEarlyStop(t *testing.T) {
	m, faults, seq := testBench(t)
	obs := []netlist.NodeID{m.DataOut}

	res, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
		Sim:            core.Options{Observe: obs, Workers: 1},
		BatchSize:      ceilDiv(len(faults), 8),
		Shards:         1,
		CoverageTarget: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchesSkipped == 0 {
		t.Fatalf("5%% target on a high-coverage workload should skip batches (run=%d of %d, coverage %.2f)",
			res.BatchesRun, res.Batches, res.Coverage())
	}
	if res.Coverage() < 0.05 {
		t.Fatalf("stopped below target: %.3f", res.Coverage())
	}
	skipped := 0
	for _, o := range res.PerFault {
		if o.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no per-fault skip markers")
	}
}

// TestCampaignCancelAtTarget: the counter Progress shows is the counter
// that stops the campaign, so a caller who cancels the moment an event
// shows the target met gets the early-stopped result — in-flight batches
// finish and are merged — while a cancel before that point aborts the
// campaign promptly with context.Canceled.
func TestCampaignCancelAtTarget(t *testing.T) {
	m, faults, seq := testBench(t)
	opts := campaign.Options{
		Sim:       core.Options{Observe: []netlist.NodeID{m.DataOut}},
		BatchSize: ceilDiv(len(faults), 8),
		Shards:    2,
	}

	const target = 0.1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	atTarget := opts
	atTarget.CoverageTarget = target
	atTarget.Progress = func(ev campaign.ProgressEvent) {
		if ev.Coverage() >= target {
			cancel()
		}
	}
	res, err := campaign.Run(ctx, m.Net, faults, seq, atTarget)
	if err != nil {
		t.Fatalf("cancel at the target returned error: %v", err)
	}
	if res.Coverage() < target {
		t.Fatalf("coverage %.3f below target", res.Coverage())
	}
	if res.BatchesRun+res.BatchesSkipped+res.BatchesResumed != res.Batches || res.BatchesSkipped == 0 {
		t.Fatalf("batch accounting: %d run + %d skipped + %d resumed of %d",
			res.BatchesRun, res.BatchesSkipped, res.BatchesResumed, res.Batches)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	before := opts
	before.CoverageTarget = 0.9
	before.Progress = func(campaign.ProgressEvent) { cancel() }
	start := time.Now()
	if _, err := campaign.Run(ctx, m.Net, faults, seq, before); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel before the target returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancel before the target took %v", d)
	}
}

// TestCampaignValidation: mismatched recordings and missing outputs fail
// cleanly.
func TestCampaignValidation(t *testing.T) {
	m, faults, seq := testBench(t)
	obs := []netlist.NodeID{m.DataOut}

	if _, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{}); err == nil {
		t.Error("campaign without observed outputs should fail")
	}

	other := ram.New(ram.Config{Rows: 2, Cols: 2})
	rec := core.Record(other.Net, march.Sequence1(other), core.Options{})
	if _, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
		Sim: core.Options{Observe: obs}, Recording: rec,
	}); err == nil {
		t.Error("foreign recording should fail validation")
	}
}

// TestRemoteExecuteRecordsNothing: batches that run through Remote
// replay a recording held elsewhere, so Execute neither records the good
// circuit nor hands one back, and Run refuses a Remote campaign, whose
// merge needs good work only its caller holds. Recording RAM256 sequence
// 1 allocates over 10 MB; this Execute, with results its Remote
// fabricates, a small fraction of that.
func TestRemoteExecuteRecordsNothing(t *testing.T) {
	m := ram.RAM256()
	seq := march.Sequence1(m)
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})[:8]
	const batchSize = 4
	results := make([]*core.BatchResult, len(faults)/batchSize)
	for i := range results {
		results[i] = &core.BatchResult{
			NumFaults:  batchSize,
			Detected:   make([]bool, batchSize),
			Detections: make([]core.Detection, batchSize),
			Oscillated: make([]bool, batchSize),
			Records:    make([]map[netlist.NodeID]logic.Value, batchSize),
			PerSetting: make([]core.SettingStats, seq.NumSettings()),
			PerPattern: make([]core.BatchPattern, len(seq.Patterns)),
		}
	}
	opts := campaign.Options{
		Sim:       core.Options{Observe: []netlist.NodeID{m.DataOut}},
		BatchSize: batchSize,
		Shards:    1,
		Remote: func(*campaign.Ledger) func(context.Context, int, int) (*core.BatchResult, error) {
			return func(_ context.Context, _, i int) (*core.BatchResult, error) { return results[i], nil }
		},
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, rec, err := campaign.Execute(context.Background(), m.Net, faults, seq, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Error("Execute handed back a recording of a campaign whose batches ran remotely")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2<<20 {
		t.Errorf("Execute allocated %.1f MB for a remote campaign: it recorded the good circuit", float64(alloc)/(1<<20))
	}
	res, err := l.Finish(func(int) int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.GoodWork != int64(seq.NumSettings()) || res.BatchesRun != len(results) {
		t.Errorf("merged good work %d over %d batches, want %d over %d",
			res.Run.GoodWork, res.BatchesRun, seq.NumSettings(), len(results))
	}
	if _, err := campaign.Run(context.Background(), m.Net, faults, seq, opts); err == nil {
		t.Error("Run accepted a Remote campaign it cannot merge")
	}
}

// TestCampaignProgressEvents: the Progress stream reports every batch's
// completion, campaign-wide detections that are monotonic per reporting
// batch and sum to the final count, and universe-indexed detection
// events consistent with the merged per-fault outcomes.
func TestCampaignProgressEvents(t *testing.T) {
	m, faults, seq := testBench(t)
	obs := []netlist.NodeID{m.DataOut}

	var mu sync.Mutex
	var events []campaign.ProgressEvent
	res, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
		Sim:       core.Options{Observe: obs},
		BatchSize: ceilDiv(len(faults), 3),
		Shards:    2,
		Progress: func(ev campaign.ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	batchDone := 0
	lastDetected := -1
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.NumFaults != len(faults) || ev.Batches != res.Batches {
			t.Fatalf("event universe %d/%d, want %d/%d", ev.NumFaults, ev.Batches, len(faults), res.Batches)
		}
		if ev.Detected < lastDetected {
			t.Fatalf("campaign-wide detected regressed: %d -> %d", lastDetected, ev.Detected)
		}
		lastDetected = ev.Detected
		if ev.BatchDone {
			batchDone++
		}
		for _, fi := range ev.NewlyDetected {
			if seen[fi] {
				t.Fatalf("fault %d detected twice in the event stream", fi)
			}
			seen[fi] = true
			if _, ok := res.Detected(fi); !ok {
				t.Fatalf("fault %d streamed as detected but not in the result", fi)
			}
		}
	}
	if batchDone != res.Batches {
		t.Fatalf("%d batch-done events, want %d", batchDone, res.Batches)
	}
	if len(seen) != res.Run.Detected || lastDetected != res.Run.Detected {
		t.Fatalf("streamed %d detections (last counter %d), result has %d",
			len(seen), lastDetected, res.Run.Detected)
	}
}

// TestCampaignCancellation: a cancelled campaign returns promptly with
// context.Canceled; completed batches stay in the checkpoint and a
// resumed run finishes from them.
func TestCampaignCancellation(t *testing.T) {
	m, faults, seq := testBench(t)
	obs := []netlist.NodeID{m.DataOut}
	ckPath := filepath.Join(t.TempDir(), "ck.json")

	// Cancel as soon as the first batch completes.
	ctx, cancel := context.WithCancel(context.Background())
	opts := campaign.Options{
		Sim:            core.Options{Observe: obs},
		BatchSize:      ceilDiv(len(faults), 8),
		Shards:         1,
		CheckpointPath: ckPath,
		Progress: func(ev campaign.ProgressEvent) {
			if ev.BatchDone {
				cancel()
			}
		},
	}
	_, err := campaign.Run(ctx, m.Net, faults, seq, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}

	// Resume without the cancelled context: at least one batch must come
	// from the checkpoint, and the merged result matches an uninterrupted
	// run.
	opts.Progress = nil
	res, err := campaign.Run(context.Background(), m.Net, faults, seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchesResumed == 0 {
		t.Fatal("no batches resumed after cancellation")
	}
	clean, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
		Sim:       core.Options{Observe: obs},
		BatchSize: opts.BatchSize,
		Shards:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Detected != clean.Run.Detected || res.Run.FaultWork != clean.Run.FaultWork {
		t.Fatalf("resumed result diverged: %d/%d vs %d/%d",
			res.Run.Detected, res.Run.FaultWork, clean.Run.Detected, clean.Run.FaultWork)
	}
}

// TestCampaignCheckpointVersionReject: a checkpoint written under another
// schema is refused with an error naming the version, instead of silently
// reinterpreting its contents.
func TestCampaignCheckpointVersionReject(t *testing.T) {
	m, faults, seq := testBench(t)
	obs := []netlist.NodeID{m.DataOut}
	ckPath := filepath.Join(t.TempDir(), "campaign.ck")

	opts := campaign.Options{
		Sim:            core.Options{Observe: obs, Workers: 1},
		BatchSize:      ceilDiv(len(faults), 3),
		Shards:         1,
		CheckpointPath: ckPath,
	}
	if _, err := campaign.Run(context.Background(), m.Net, faults, seq, opts); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	header, batches, _ := bytes.Cut(raw, []byte("\n"))
	var line0 struct {
		Result []byte `json:"result"`
	}
	if err := json.Unmarshal(batches[:bytes.IndexByte(batches, '\n')], &line0); err != nil {
		t.Fatal(err)
	}

	// Rewrite the header as another schema would have written it: same
	// fingerprint, another version field (a pre-versioned file decodes as
	// 0 — also rejected), the batch lines after it. Versions 0-3 were one
	// JSON document: a version 3 file is the fingerprint and a "done"
	// object of base64 results, and version 2 spelled each result out as a
	// JSON object. The version must be what the error names, not the first
	// field or line that fails to decode.
	for _, v := range []int{0, 1, 2, 3, 99} {
		var doc map[string]any
		if err := json.Unmarshal(header, &doc); err != nil {
			t.Fatal(err)
		}
		tail := batches
		switch v {
		case 0:
			delete(doc, "version")
		case 2:
			doc["version"], tail = v, nil
			doc["done"] = map[string]any{"0": map[string]any{"num_faults": 1, "per_setting": []any{}}}
		case 3:
			doc["version"], tail = v, nil
			doc["done"] = map[string]any{"0": line0.Result}
		default:
			doc["version"] = v
		}
		mut, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckPath, append(append(mut, '\n'), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = campaign.Run(context.Background(), m.Net, faults, seq, opts)
		if err == nil {
			t.Fatalf("version-%d checkpoint accepted", v)
		}
		if want := fmt.Sprintf("schema version %d,", v); !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d rejection does not name the schema version (%q): %v", v, want, err)
		}
	}
}

// mergedJSON renders what a campaign merged — everything in its Result
// but the recording and the count of batches resumed: the bytes two
// equivalent executions must agree on.
func mergedJSON(t *testing.T, res *campaign.Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Run      core.Result
		PerFault []campaign.FaultOutcome
	}{res.Run, res.PerFault})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMergeWideRowPayload: a batch result an earlier build wrote, before
// the batch rows lost the fields Merge does not read (see
// internal/core/testdata), merges byte for byte to what this build's
// result for the same batch merges to — beside a batch of this build and
// a skipped one, as a resumed checkpoint would mix them.
func TestMergeWideRowPayload(t *testing.T) {
	bin, err := os.ReadFile(filepath.Join("..", "core", "testdata", "batchresult-wide-rows.fmosbres"))
	if err != nil {
		t.Fatal(err)
	}
	var old core.BatchResult
	if err := old.UnmarshalBinary(bin); err != nil {
		t.Fatal(err)
	}
	m := ram.RAM64()
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:48]
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	tab := switchsim.NewTables(m.Net)
	rec := core.Record(m.Net, seq, opts)
	batch := func(lo int) *core.BatchResult {
		br, err := core.RunBatch(nil, tab, faults[lo:lo+64], rec, seq, opts)
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	fresh, next := batch(16), batch(80)
	want := campaign.Merge(rec, seq, 3*64, 64, []*core.BatchResult{fresh, next, nil})
	got := campaign.Merge(rec, seq, 3*64, 64, []*core.BatchResult{&old, next, nil})
	if g, w := mergedJSON(t, got), mergedJSON(t, want); g != w {
		t.Fatalf("the earlier build's payload merges to\n%s\nwant\n%s", g, w)
	}
	if got.Run.Detected == 0 || got.Run.FaultWork == 0 {
		t.Fatalf("the merge detected %d faults with %d units of fault work: the batches did nothing", got.Run.Detected, got.Run.FaultWork)
	}
}

// shuffledBench is testBench's universe in a seeded shuffled order: batch
// order then differs from index order.
func shuffledBench(t *testing.T) (*ram.RAM, []fault.Fault, *switchsim.Sequence) {
	m, faults, seq := testBench(t)
	rand.New(rand.NewSource(7)).Shuffle(len(faults), func(i, j int) { faults[i], faults[j] = faults[j], faults[i] })
	return m, faults, seq
}

// TestCampaignSiteWindowsMatchIndexWindows: on a shuffled universe the
// campaign cuts its batches in site order, and its merge is byte for byte
// the merge of the universe's own index windows.
func TestCampaignSiteWindowsMatchIndexWindows(t *testing.T) {
	m, faults, seq := shuffledBench(t)
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	rec := core.Record(m.Net, seq, opts)
	tab := switchsim.NewTables(m.Net)
	const batchSize = 16
	var results []*core.BatchResult
	for lo := 0; lo < len(faults); lo += batchSize {
		br, err := core.RunBatch(context.Background(), tab, faults[lo:min(lo+batchSize, len(faults))], rec, seq, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, br)
	}
	want := campaign.Merge(rec, seq, len(faults), batchSize, results)
	got, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
		Sim: opts, BatchSize: batchSize, Shards: 2, Recording: rec, Tables: tab,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mergedJSON(t, got) != mergedJSON(t, want) {
		t.Fatal("the site-ordered campaign merges to other bytes than the index windows")
	}
}

// TestCampaignEarlyStopIndices: with batches of 16 over a shuffled universe
// and a coverage target, early stop skips whole site-ordered windows, and
// every NewlyDetected index names a fault the result reports detected at
// that pattern and setting.
func TestCampaignEarlyStopIndices(t *testing.T) {
	m, faults, seq := shuffledBench(t)
	var events []campaign.ProgressEvent
	res, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
		Sim:            core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1},
		BatchSize:      16,
		Shards:         1,
		CoverageTarget: 0.3,
		Progress:       func(ev campaign.ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchesSkipped == 0 {
		t.Fatalf("no batch skipped at a 30%% target (%d run of %d)", res.BatchesRun, res.Batches)
	}
	skipped := 0
	for _, o := range res.PerFault {
		if o.Skipped {
			skipped++
		}
	}
	if skipped != 16*res.BatchesSkipped && skipped != len(faults)-16*(res.Batches-res.BatchesSkipped) {
		t.Fatalf("%d faults skipped in %d skipped batches of 16", skipped, res.BatchesSkipped)
	}
	n := 0
	for _, ev := range events {
		for _, fi := range ev.NewlyDetected {
			n++
			if o := res.PerFault[fi]; !o.Detected || o.Detection.Pattern != ev.Pattern || o.Detection.Setting != ev.Setting {
				t.Fatalf("fault %d streamed as detected at %d/%d; the result has %+v", fi, ev.Pattern, ev.Setting, o)
			}
		}
	}
	if n == 0 {
		t.Fatal("no detection was streamed")
	}
}

// TestFoldedMergeMatchesMerge: a campaign folds each batch's row tables
// into its sums as they come free (when the batch's slot starts another
// batch, at resume, at Finish), its slots refill one table each, and
// Finish assembles from the sums. What it merges is byte for byte
// campaign.Merge over fresh core.RunBatch results of its windows — on
// RAM64 sequences 1 and 2, batches of 16 and 64, and 1, 2 and 3 shards;
// run through with a checkpoint, resumed from that checkpoint cut to half
// its batches, stopped early by a coverage target (the batches it skipped
// merge as nil; the target is half the coverage the whole run reached),
// and run through a Remote that returns the fresh results.
// Under the race detector each sequence is cut to its first patterns.
func TestFoldedMergeMatchesMerge(t *testing.T) {
	m := ram.RAM64()
	// Node stuck-at faults come in node order, sa0 before sa1: their batch
	// order is their own, so Merge over index windows is what Finish
	// scatters back to universe order (checked below).
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	sim := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	tab := switchsim.NewTables(m.Net)
	for _, seq := range []*switchsim.Sequence{march.Sequence1(m), march.Sequence2(m)} {
		if raceDetector {
			seq.Patterns = seq.Patterns[:16]
		}
		rec := core.RecordTables(tab, seq, sim)
		for _, batchSize := range []int{16, 64} {
			fresh := make([]*core.BatchResult, ceilDiv(len(faults), batchSize))
			for i := range fresh {
				lo := i * batchSize
				br, err := core.RunBatch(context.Background(), tab, faults[lo:min(lo+batchSize, len(faults))], rec, seq, sim)
				if err != nil {
					t.Fatal(err)
				}
				fresh[i] = br
			}
			for _, shards := range []int{1, 2, 3} {
				tag := fmt.Sprintf("%s/batch%d/shards%d", seq.Name, batchSize, shards)
				ckPath := filepath.Join(t.TempDir(), "campaign.ck")
				opts := campaign.Options{Sim: sim, BatchSize: batchSize, Shards: shards, Recording: rec, Tables: tab, CheckpointPath: ckPath}
				res := foldedRun(t, tag, m.Net, faults, seq, opts, rec, fresh)
				if res.BatchesRun != len(fresh) {
					t.Fatalf("%s: %d of %d batches run", tag, res.BatchesRun, len(fresh))
				}

				data, err := os.ReadFile(ckPath)
				if err != nil {
					t.Fatal(err)
				}
				lines := bytes.SplitAfter(data, []byte("\n"))
				half := bytes.Join(lines[:1+len(fresh)/2], nil)
				if err := os.WriteFile(ckPath, half, 0o644); err != nil {
					t.Fatal(err)
				}
				res = foldedRun(t, tag+"/resumed", m.Net, faults, seq, opts, rec, fresh)
				if res.BatchesResumed != len(fresh)/2 || res.BatchesRun != len(fresh)-len(fresh)/2 {
					t.Fatalf("%s: resumed %d and ran %d of %d batches from a log of half of them", tag, res.BatchesResumed, res.BatchesRun, len(fresh))
				}

				target := opts
				target.CheckpointPath, target.CoverageTarget = "", res.Coverage()/2
				res = foldedRun(t, tag+"/target", m.Net, faults, seq, target, rec, fresh)
				if res.BatchesSkipped == 0 {
					t.Fatalf("%s: the coverage target skipped no batch", tag)
				}

				remote := opts
				remote.CheckpointPath = ""
				remote.Remote = func(*campaign.Ledger) func(context.Context, int, int) (*core.BatchResult, error) {
					return func(_ context.Context, _, i int) (*core.BatchResult, error) {
						br := *fresh[i] // the campaign takes its rows: hand it a copy
						return &br, nil
					}
				}
				foldedRun(t, tag+"/remote", m.Net, faults, seq, remote, rec, fresh)
			}
		}
	}
}

// foldedRun executes a campaign and checks that Finish merges byte for
// byte what campaign.Merge makes of the fresh results of the batches it
// ran, with nil for those it skipped.
func foldedRun(t *testing.T, tag string, nw *netlist.Network, faults []fault.Fault, seq *switchsim.Sequence, opts campaign.Options, rec *switchsim.Recording, fresh []*core.BatchResult) *campaign.Result {
	t.Helper()
	l, _, err := campaign.Execute(context.Background(), nw, faults, seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(l.Faults(), faults) {
		t.Fatalf("%s: the universe's batch order is not its own", tag)
	}
	res, err := l.Finish(rec.SettingWork)
	if err != nil {
		t.Fatal(err)
	}
	ran := make([]*core.BatchResult, len(fresh))
	for i := range ran {
		if l.Batch(i) != nil {
			ran[i] = fresh[i]
		}
	}
	want := campaign.Merge(rec, seq, len(faults), opts.BatchSize, ran)
	if got, want := mergedJSON(t, res), mergedJSON(t, want); got != want {
		t.Fatalf("%s: the folded merge is\n%.300s\nMerge over fresh batches is\n%.300s", tag, got, want)
	}
	return res
}
