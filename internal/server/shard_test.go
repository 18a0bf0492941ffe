package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fmossim/internal/core"
	"fmossim/internal/march"
	"fmossim/internal/ram"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// putRecording encodes rec and uploads it under its fingerprint,
// returning the fingerprint.
func putRecording(t *testing.T, ts *httptest.Server, rec *switchsim.Recording) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	fp := switchsim.FingerprintBytes(buf.Bytes())
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/recordings/"+fp, bytes.NewReader(buf.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT /recordings/%s: %s", fp, resp.Status)
	}
	var meta server.RecordingMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.Fingerprint != fp || meta.Bytes != buf.Len() {
		t.Fatalf("meta = %+v", meta)
	}
	return fp
}

// waitTerminal polls a job to any terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) server.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShardJobMatchesRunBatch: a shard job over an uploaded recording
// returns a batch result identical to running core.RunBatch locally over
// the same window and recording.
func TestShardJobMatchesRunBatch(t *testing.T) {
	spec := server.JobSpec{
		Netlist:  invNet,
		Patterns: invPatterns,
		Observe:  []string{"out"},
	}
	wl, err := server.ResolveSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := core.Record(wl.Net, wl.Seq, core.Options{})
	lo, hi := 1, len(wl.Faults)
	want, err := core.RunBatch(context.Background(), wl.Tables, wl.Faults[lo:hi], rec, wl.Seq,
		core.Options{Observe: wl.Observe, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, server.Config{})
	fp := putRecording(t, ts, rec)

	// The fingerprint is now visible on the listing and GET endpoints.
	gresp, err := http.Get(ts.URL + "/recordings/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /recordings/%s: %s", fp, gresp.Status)
	}

	shard := map[string]any{
		"netlist":       invNet,
		"patterns":      invPatterns,
		"observe":       []string{"out"},
		"shard_lo":      lo,
		"shard_hi":      hi,
		"recording_fp":  fp,
		"include_batch": true,
	}
	snap, resp := submit(t, ts, shard)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit shard: %s", resp.Status)
	}
	readStream(t, ts, snap.ID)
	st, res := getStatus(t, ts, snap.ID)
	if st.State != server.StateDone || res == nil || res.Batch == nil {
		t.Fatalf("shard job: %+v (result %+v)", st, res)
	}
	if res.NumFaults != hi-lo || res.Batches != 1 || res.BatchesRun != 1 {
		t.Fatalf("shard result shape: %+v", res)
	}

	// The batch payload survives its JSON round trip bit-identically.
	if got := res.Batch; !reflect.DeepEqual(got, want) {
		t.Fatalf("batch result differs:\ngot  %+v\nwant %+v", got, want)
	}
	if res.Detected != want.DetectedCount() {
		t.Fatalf("detected %d, want %d", res.Detected, want.DetectedCount())
	}

	// A batch result is a function of the window and the recording alone:
	// a second job over the same window puts the same string on the wire,
	// the one the local run marshals to.
	again, resp := submit(t, ts, shard)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit shard again: %s", resp.Status)
	}
	waitTerminal(t, ts, again.ID)
	local, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	first, second := batchString(t, ts, snap.ID), batchString(t, ts, again.ID)
	if first != second || first != string(local) {
		t.Fatalf("batch strings differ: %d and %d bytes on the wire, %d locally", len(first), len(second), len(local))
	}
}

// batchString returns the raw "batch" value of a finished shard job's
// result, as the status endpoint serves it.
func batchString(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Result struct {
			Batch json.RawMessage `json:"batch"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || len(st.Result.Batch) == 0 {
		t.Fatalf("job %s: no batch in its result (decode error %v)", id, err)
	}
	return string(st.Result.Batch)
}

// TestPutRecordingFingerprintMismatch: the server re-hashes the body and
// refuses an upload whose fingerprint does not match.
func TestPutRecordingFingerprintMismatch(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	req, _ := http.NewRequest(http.MethodPut,
		ts.URL+"/recordings/"+"deadbeef", bytes.NewReader([]byte("not a recording")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched fingerprint: %s, want 400", resp.Status)
	}
}

// TestPutRecordingLyingLength: the upload buffer is sized from the
// request's Content-Length, so the header is checked, not trusted. A size
// over the body limit is refused before anything is allocated for it; a
// size at the limit allocates in step with the bytes that come, not the
// 512 MB it claims; a body that stops short of its header, or runs past
// it, is refused as a short read or a fingerprint mismatch; only the
// honest upload is stored.
func TestPutRecordingLyingLength(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:4]
	var buf bytes.Buffer
	if err := core.Record(m.Net, seq, core.Options{}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	fp := switchsim.FingerprintBytes(enc)
	_, ts := newTestServer(t, server.Config{})

	// put sends the upload by hand (net/http refuses to send a body that
	// disagrees with its Content-Length) and returns the status and what
	// the server allocated meanwhile.
	put := func(length int64, body []byte) (int, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "PUT /recordings/%s HTTP/1.1\r\nHost: worker\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", fp, length)
		conn.Write(body)
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		return resp.StatusCode, after.TotalAlloc - before.TotalAlloc
	}
	n := int64(len(enc))
	for _, c := range []struct {
		name   string
		length int64
		want   int
	}{
		{"over the limit", 1 << 40, http.StatusRequestEntityTooLarge},
		{"at the limit", 512 << 20, http.StatusBadRequest},
		{"longer than the body", n + 100, http.StatusBadRequest},
		{"shorter than the body", n - 100, http.StatusBadRequest},
		{"honest", n, http.StatusCreated},
	} {
		status, alloc := put(c.length, enc)
		if status != c.want {
			t.Errorf("%s: Content-Length %d for %d bytes answered %d, want %d", c.name, c.length, n, status, c.want)
		}
		if alloc > 32<<20 {
			t.Errorf("%s: the upload of %d bytes allocated %d MB", c.name, n, alloc>>20)
		}
	}
}

// TestPutRecordingAgain: uploading a fingerprint the store already holds
// answers 201 with the stored meta and counts as a use, so it is the other
// recording that goes when the store overflows.
func TestPutRecordingAgain(t *testing.T) {
	m := ram.RAM64()
	var recs []*switchsim.Recording
	for n := 2; n <= 4; n++ {
		seq := march.Sequence1(m)
		seq.Patterns = seq.Patterns[:n]
		recs = append(recs, core.Record(m.Net, seq, core.Options{}))
	}
	_, ts := newTestServer(t, server.Config{KeepRecordings: 2})
	stored := func() []string {
		resp, err := http.Get(ts.URL + "/recordings")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var metas []server.RecordingMeta
		if err := json.NewDecoder(resp.Body).Decode(&metas); err != nil {
			t.Fatal(err)
		}
		var fps []string
		for _, rm := range metas {
			fps = append(fps, rm.Fingerprint)
		}
		return fps
	}

	a := putRecording(t, ts, recs[0])
	b := putRecording(t, ts, recs[1])
	if again := putRecording(t, ts, recs[0]); again != a {
		t.Fatalf("second upload stored under %s, first under %s", again, a)
	}
	if got := stored(); !reflect.DeepEqual(got, []string{b, a}) {
		t.Fatalf("after re-upload the store lists %v, want [%s %s]", got, b, a)
	}
	c := putRecording(t, ts, recs[2])
	if got := stored(); !reflect.DeepEqual(got, []string{a, c}) {
		t.Fatalf("after overflow the store lists %v, want [%s %s]", got, a, c)
	}
}

// TestShardJobMissingRecording: a shard job referencing an unknown
// fingerprint is refused at submit with 409 and a message naming it,
// instead of silently re-recording.
func TestShardJobMissingRecording(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	fp := "0000000000000000000000000000000000000000000000000000000000000000"
	status, msg := refusal(t, ts, map[string]any{
		"netlist":       invNet,
		"patterns":      invPatterns,
		"observe":       []string{"out"},
		"shard_lo":      0,
		"shard_hi":      2,
		"recording_fp":  fp,
		"include_batch": true,
	})
	if status != http.StatusConflict || !strings.Contains(msg, fp) || !strings.Contains(msg, "PUT /recordings/") {
		t.Fatalf("unknown recording: %d %q, want 409 naming it", status, msg)
	}
}

// TestShardSpecValidation: malformed shard specs 400 at submit time.
func TestShardSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, server.Config{})
	for _, spec := range []map[string]any{
		{"workload": "ram64", "shard_lo": 3, "shard_hi": 3},             // empty window
		{"workload": "ram64", "shard_lo": 2},                            // lo without hi
		{"workload": "ram64", "include_batch": true},                    // batch payload needs a shard
		{"workload": "ram64", "shard_hi": 8, "coverage_target": 0.5},    // coordinator owns early stop
		{"workload": "ram64", "shard_hi": 8, "include_per_fault": true}, // the batch payload is the per-fault table
		{"netlist": invNet, "patterns": invPatterns, "observe": []string{"out"}, "shard_hi": -1},
	} {
		_, resp := submit(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %v: %s, want 400", spec, resp.Status)
		}
	}

	// A window past the end of the universe is refused at submit too.
	status, msg := refusal(t, ts, map[string]any{
		"netlist": invNet, "patterns": invPatterns, "observe": []string{"out"},
		"shard_lo": 0, "shard_hi": 10000,
	})
	if status != http.StatusBadRequest || !strings.Contains(msg, "out of range") {
		t.Fatalf("window past the universe: %d %q, want 400", status, msg)
	}
}

// TestAcceptedShardKeepsRecording: a shard job holds the recording it was
// accepted with. Deleting the upload after the 202 and before the job
// runs does not fail it: it completes with the batch core.RunBatch
// computes. A blocking job in front of it on the one runner holds it
// queued while the recording goes.
func TestAcceptedShardKeepsRecording(t *testing.T) {
	spec := server.JobSpec{Netlist: invNet, Patterns: invPatterns, Observe: []string{"out"}}
	wl, err := server.ResolveSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := core.Record(wl.Net, wl.Seq, core.Options{})
	want, err := core.RunBatch(context.Background(), wl.Tables, wl.Faults, rec, wl.Seq,
		core.Options{Observe: wl.Observe, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, server.Config{MaxJobs: 1})
	blocker, resp := submit(t, ts, map[string]any{"workload": "ram256", "sequence": "sequence1"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit blocker: %s", resp.Status)
	}
	waitState(t, ts, blocker.ID, server.StateRunning, 30*time.Second)

	fp := putRecording(t, ts, rec)
	shard, resp := submit(t, ts, map[string]any{
		"netlist": invNet, "patterns": invPatterns, "observe": []string{"out"},
		"shard_lo": 0, "shard_hi": len(wl.Faults), "recording_fp": fp, "include_batch": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit shard: %s", resp.Status)
	}
	del := func(path string, want int) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != want {
			t.Fatalf("DELETE %s: %s", path, dresp.Status)
		}
	}
	del("/recordings/"+fp, http.StatusOK)
	if st, _ := getStatus(t, ts, shard.ID); st.State != server.StateQueued {
		t.Fatalf("shard job %s when its recording went, want it still queued", st.State)
	}
	del("/jobs/"+blocker.ID, http.StatusAccepted)
	if st := waitTerminal(t, ts, shard.ID); st.State != server.StateDone {
		t.Fatalf("shard job ended %s (%s), want done", st.State, st.Error)
	}
	if got := batchString(t, ts, shard.ID); got != string(local) {
		t.Fatalf("the shard's batch differs from core.RunBatch's: %d bytes on the wire, %d locally", len(got), len(local))
	}
}
