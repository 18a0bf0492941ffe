package server

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"fmossim/internal/campaign"

	"fmossim/internal/core"
	"fmossim/internal/switchsim"
)

// waitDone polls a job to a terminal state and fails unless it is done.
func waitDone(t *testing.T, job *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !job.Snapshot().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q", job.Snapshot().ID, job.Snapshot().State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := job.Snapshot(); st.State != StateDone {
		t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
}

// TestShardJobCapturesNoRecording: a shard job that names an uploaded
// recording runs on it and leaves the built-in workload's cache entry
// without a capture of its own; the first campaign job over the workload
// then captures one, and the next reuses it.
func TestShardJobCapturesNoRecording(t *testing.T) {
	mgr := NewManager(Config{})
	defer mgr.Close()

	spec := JobSpec{Workload: "ram64", MaxPatterns: 12}
	wl, err := ResolveSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	encoded := core.Record(wl.Net, wl.Seq, core.Options{}).AppendBinary(nil)
	uploaded, err := switchsim.DecodeRecordingBytes(encoded)
	if err != nil {
		t.Fatal(err)
	}
	fp := switchsim.FingerprintBytes(encoded)
	mgr.recordings.put(fp, uploaded, len(encoded))

	shard := spec
	shard.ShardLo, shard.ShardHi, shard.RecordingFP = 0, 16, fp
	job, err := mgr.Submit(shard)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	key, _ := spec.workloadKey()
	entry := mgr.cache.entries[key]
	if entry == nil {
		t.Fatalf("no cache entry under %q", key)
	}
	if entry.rec != nil {
		t.Fatal("the shard job captured a recording it was sent")
	}

	var captured *switchsim.Recording
	for i := 0; i < 2; i++ {
		if job, err = mgr.Submit(spec); err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		switch {
		case entry.rec == nil:
			t.Fatal("the campaign job ran without capturing a recording")
		case captured == nil:
			captured = entry.rec
		case entry.rec != captured:
			t.Fatal("the second campaign job captured the recording again")
		}
	}
	// The entry captures the whole sequence; the job's 12 patterns are its
	// prefix.
	prefix := *captured
	prefix.Steps = prefix.Steps[:len(uploaded.Steps)]
	if got, _ := prefix.Fingerprint(); got != fp {
		t.Fatalf("captured recording's prefix fingerprints %s, the upload %s", got, fp)
	}
}

// TestTruncatedJobsShareOneEntry: jobs over one built-in workload at
// several max_patterns values leave one cache entry, each is served the
// whole recording's prefix, encoding byte-identically to a capture of its
// truncated sequence, and each result matches ResolveSpec followed by
// campaign.Run.
func TestTruncatedJobsShareOneEntry(t *testing.T) {
	mgr := NewManager(Config{})
	defer mgr.Close()

	for _, maxPatterns := range []int{7, 1, 0, 96, 406} {
		spec := JobSpec{Workload: "ram64", MaxPatterns: maxPatterns, SampleEvery: 4,
			BatchSize: 32, Shards: 1, IncludePerFault: true}
		job, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)

		want, err := ResolveSpec(&spec)
		if err != nil {
			t.Fatal(err)
		}
		served, err := mgr.resolve(&spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(served.Seq.Patterns) != len(want.Seq.Patterns) {
			t.Fatalf("max_patterns %d: served %d patterns, want %d",
				maxPatterns, len(served.Seq.Patterns), len(want.Seq.Patterns))
		}
		recorded := core.Record(want.Net, want.Seq, core.Options{}).AppendBinary(nil)
		if !bytes.Equal(served.Recording.AppendBinary(nil), recorded) {
			t.Fatalf("max_patterns %d: the served recording differs from a capture of the truncated sequence", maxPatterns)
		}

		res, err := campaign.Run(context.Background(), want.Net, want.Faults, want.Seq, campaign.Options{
			Sim: spec.SimOptions(want), BatchSize: spec.BatchSize, Shards: spec.Shards, Tables: want.Tables,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, exp := *job.Result(), *buildResult(want, res, true)
		got.WallNS, exp.WallNS = 0, 0
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("max_patterns %d: job result\n%+v\nwant\n%+v", maxPatterns, got, exp)
		}
	}
	if n := len(mgr.cache.entries); n != 1 {
		t.Fatalf("%d cache entries, want one per workload and sequence", n)
	}
}
