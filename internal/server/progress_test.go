package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fmossim/internal/campaign"
)

// handJob registers a job nothing runs: the test plays the campaign.
func handJob(t *testing.T, interval time.Duration) (*Job, *httptest.Server) {
	t.Helper()
	m := NewManager(Config{MaxJobs: 1, StreamInterval: interval})
	job := newJob("hand", JobSpec{}, m.ctx)
	m.mu.Lock()
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.mu.Unlock()
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return job, ts
}

// streamReader decodes a job's NDJSON stream line by line.
type streamReader struct {
	t    *testing.T
	resp *http.Response
	sc   *bufio.Scanner
}

func openStream(t *testing.T, ts *httptest.Server, id string) *streamReader {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return &streamReader{t: t, resp: resp, sc: bufio.NewScanner(resp.Body)}
}

// next returns the next line, or false at the end of the stream.
func (r *streamReader) next() (StreamLine, bool) {
	r.t.Helper()
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			r.t.Fatal(err)
		}
		return StreamLine{}, false
	}
	var l StreamLine
	if err := json.Unmarshal(r.sc.Bytes(), &l); err != nil {
		r.t.Fatalf("bad stream line %q: %v", r.sc.Text(), err)
	}
	return l, true
}

// TestQuietProgressWakesNobody: a progress event without detections
// updates the counters under the lock and nothing else — no allocation, no
// new notify channel — while one with detections logs its group and wakes
// the subscribers.
func TestQuietProgressWakesNobody(t *testing.T) {
	job := newJob("j", JobSpec{}, context.Background())
	defer job.cancel()
	quiet := campaign.ProgressEvent{Pattern: 3, Setting: 1, LiveFaults: 9, NumFaults: 12, Batches: 2}
	notify := job.notify
	if n := testing.AllocsPerRun(1000, func() { job.onProgress(quiet) }); n != 0 {
		t.Errorf("a detection-free onProgress allocates %v times", n)
	}
	if job.notify != notify {
		t.Error("a detection-free onProgress replaced the notify channel")
	}
	if snap := job.Snapshot(); snap.Events != 1001 || snap.LiveFaults != 9 {
		t.Errorf("snapshot after 1001 quiet events: %+v", snap)
	}

	loud := quiet
	loud.NewlyDetected, loud.Detected = []int{4, 7}, 2
	job.onProgress(loud)
	select {
	case <-notify:
	default:
		t.Error("an event with detections did not wake the subscribers")
	}
	if _, groups, _, _ := job.observe(0); len(groups) != 1 || len(groups[0].Faults) != 2 {
		t.Errorf("detection log: %+v", groups)
	}
}

// TestStreamSnapshotsArriveOnTimer: a job that detects nothing wakes no
// subscriber, yet its stream still shows progress — a snapshot line about
// every StreamInterval while events keep coming, each with a later event
// count.
func TestStreamSnapshotsArriveOnTimer(t *testing.T) {
	const interval = 20 * time.Millisecond
	job, ts := handJob(t, interval)
	job.setRunning()
	r := openStream(t, ts, job.ID)
	first, ok := r.next()
	if !ok || first.Type != "snapshot" {
		t.Fatalf("first line: %+v", first)
	}

	stop := make(chan struct{})
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		ev := campaign.ProgressEvent{NumFaults: 10, Batches: 1}
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				ev.Setting++
				job.onProgress(ev)
			}
		}
	}()
	last, start := first.Events, time.Now()
	const want = 5
	for i := 0; i < want; i++ {
		l, ok := r.next()
		if !ok || l.Type != "snapshot" || l.Events <= last {
			t.Fatalf("line %d: %+v (ok %v) after event count %d", i, l, ok, last)
		}
		last = l.Events
	}
	// Five intervals is 100 ms; a timer that never fired would leave the
	// reader blocked until the test times out, a generous bound only
	// guards against one that fires far too late.
	if d := time.Since(start); d > 50*want*interval {
		t.Errorf("%d snapshots took %v at a %v interval", want, d, interval)
	}
	close(stop)
	<-fed
	job.finish(StateDone, "", &Result{})
	for {
		if _, ok := r.next(); !ok {
			break
		}
	}
}

// TestStreamNeverDelaysDetectionsOrTerminal: with a StreamInterval far
// longer than the test, a detection group, the snapshot that goes with it,
// the terminal snapshot and the result line still arrive at once — the
// timer paces quiet progress only.
func TestStreamNeverDelaysDetectionsOrTerminal(t *testing.T) {
	job, ts := handJob(t, time.Hour)
	job.setRunning()
	r := openStream(t, ts, job.ID)
	if l, ok := r.next(); !ok || l.Type != "snapshot" {
		t.Fatalf("first line: %+v", l)
	}
	start := time.Now()

	job.onProgress(campaign.ProgressEvent{NumFaults: 10, Batches: 1}) // quiet: no line
	job.onProgress(campaign.ProgressEvent{NumFaults: 10, Batches: 1, NewlyDetected: []int{3}, Detected: 1})
	if l, ok := r.next(); !ok || l.Type != "detections" || len(l.Faults) != 1 {
		t.Fatalf("after a detection: %+v", l)
	}
	if l, ok := r.next(); !ok || l.Type != "snapshot" || l.Detected != 1 || l.Events != 3 {
		t.Fatalf("after a detection: %+v", l)
	}

	job.finish(StateDone, "", &Result{NumFaults: 10, Detected: 1, Batches: 1})
	if l, ok := r.next(); !ok || l.Type != "snapshot" || l.State != StateDone {
		t.Fatalf("after finish: %+v", l)
	}
	if l, ok := r.next(); !ok || l.Type != "result" || l.Result == nil {
		t.Fatalf("after finish: %+v", l)
	}
	if _, ok := r.next(); ok {
		t.Fatal("the stream went on after the result line")
	}
	if d := time.Since(start); d > time.Minute {
		t.Errorf("detection and terminal lines took %v", d)
	}
}
