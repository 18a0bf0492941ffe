package server

import (
	"testing"
	"time"

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
	if got, _ := captured.Fingerprint(); got != fp {
		t.Fatalf("captured recording fingerprints %s, the upload %s", got, fp)
	}
}
