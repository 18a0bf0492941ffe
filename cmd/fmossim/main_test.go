package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fmossim/internal/campaign"
	"fmossim/internal/server"
)

// invNet and invPatterns are a two-inverter chain toggled over two
// patterns: the smallest inline workload.
const invNet = `scale 1 1
input in 0
node mid
node out
d mid Vdd mid
n in mid Gnd
d out Vdd out
n mid out Gnd
`

const invPatterns = `in=0
in=1
pattern p1
in=0
in=1
`

func TestParse(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{"$NET": invNet, "$PAT": invPatterns, "$EMPTY": ""}
	for name, text := range files {
		path := filepath.Join(dir, strings.TrimPrefix(name, "$"))
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		files[name] = path
	}

	for _, tc := range []struct {
		name    string
		args    string
		wantErr string
		check   func(t *testing.T, c *config)
	}{
		{name: "built-in workload", args: "-workload ram64 -fault-model stuck -sample-every 4 -max-patterns 10",
			check: func(t *testing.T, c *config) {
				if c.dist.Workers != nil {
					t.Errorf("Workers = %q, want a local run", c.dist.Workers)
				}
				if n := len(c.wl.Seq.Patterns); n != 10 {
					t.Errorf("%d patterns, want 10", n)
				}
				if c.wl.Seq.Name != "sequence1" || len(c.wl.Observe) != 1 || len(c.wl.Faults) == 0 {
					t.Errorf("sequence %q, %d observed, %d faults", c.wl.Seq.Name, len(c.wl.Observe), len(c.wl.Faults))
				}
			}},
		{name: "inline netlist", args: "-net $NET -patterns $PAT -observe out",
			check: func(t *testing.T, c *config) {
				if c.spec.Netlist != invNet || c.spec.Patterns != invPatterns {
					t.Error("netlist and patterns not read into the spec")
				}
				// Named as fmossimd and a distributed campaign name it: a
				// checkpoint is keyed by the name.
				if c.wl.Seq.Name != "patterns" {
					t.Errorf("sequence named %q, want %q", c.wl.Seq.Name, "patterns")
				}
			}},
		{name: "observe list trimmed", args: "-net $NET -patterns $PAT -observe mid,_out,",
			check: func(t *testing.T, c *config) {
				if want := []string{"mid", "out"}; !reflect.DeepEqual(c.spec.Observe, want) || len(c.wl.Observe) != 2 {
					t.Errorf("Observe = %q (%d resolved), want %q", c.spec.Observe, len(c.wl.Observe), want)
				}
			}},
		{name: "worker URLs", args: "-workload ram64 -workers h:1,_http://h:2/,_,",
			check: func(t *testing.T, c *config) {
				if want := []string{"http://h:1", "http://h:2"}; !reflect.DeepEqual(c.dist.Workers, want) {
					t.Errorf("Workers = %q, want %q", c.dist.Workers, want)
				}
			}},
		{name: "shared flags, distributed", args: "-workload ram64 -workers h:1 -sim-workers 3 -batch 64 -in-flight 4 -attempts 5",
			check: func(t *testing.T, c *config) {
				if c.spec.Workers != 3 || c.dist.SimWorkers != 3 || c.spec.BatchSize != 64 || c.dist.BatchSize != 64 {
					t.Errorf("sim workers %d/%d, batch %d/%d; want 3 and 64 in both",
						c.spec.Workers, c.dist.SimWorkers, c.spec.BatchSize, c.dist.BatchSize)
				}
				if c.dist.InFlight != 4 || c.dist.MaxAttempts != 5 {
					t.Errorf("in-flight %d, attempts %d", c.dist.InFlight, c.dist.MaxAttempts)
				}
			}},
		{name: "shared flags, local", args: "-workload ram64 -sim-workers 3 -batch 64 -shards 2",
			check: func(t *testing.T, c *config) {
				if c.spec.SimOptions(c.wl).Workers != 3 || c.spec.BatchSize != 64 || c.spec.Shards != 2 {
					t.Errorf("sim workers %d, batch %d, shards %d", c.spec.Workers, c.spec.BatchSize, c.spec.Shards)
				}
			}},
		{name: "shards with workers", args: "-workload ram64 -workers h:1 -shards 0", wantErr: "-shards"},
		{name: "checkpoint with workers", args: "-workload ram64 -workers h:1 -checkpoint ck",
			check: func(t *testing.T, c *config) {
				if c.dist.CheckpointPath != "ck" {
					t.Errorf("CheckpointPath = %q, want %q", c.dist.CheckpointPath, "ck")
				}
			}},
		{name: "in-flight without workers", args: "-workload ram64 -in-flight 2", wantErr: "-in-flight"},
		{name: "attempts with blank workers", args: "-workload ram64 -workers _,_ -attempts 2", wantErr: "-attempts"},
		{name: "net without patterns", args: "-net $NET -observe out", wantErr: "patterns is required"},
		{name: "empty fault list", args: "-net $NET -patterns $PAT -observe out -faults $EMPTY", wantErr: "is empty"},
		{name: "bad drop policy", args: "-workload ram64 -drop sometimes", wantErr: "unknown drop policy"},
		// Every batch is trimmed: the switch is gone, not ignored.
		{name: "trim is not a flag", args: "-workload ram64 -trim", wantErr: "flag provided but not defined: -trim"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := strings.Fields(tc.args)
			for i, a := range args {
				// "_" stands for a blank inside one argument.
				args[i] = strings.ReplaceAll(a, "_", " ")
				for k, v := range files {
					args[i] = strings.ReplaceAll(args[i], k, v)
				}
			}
			c, err := parse(args)
			switch {
			case tc.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parse(%q) error = %v, want one naming %q", args, err, tc.wantErr)
				}
			case err != nil:
				t.Fatalf("parse(%q): %v", args, err)
			default:
				tc.check(t, c)
			}
		})
	}
}

// TestCheckpointAcrossModes: over an inline netlist, a checkpoint log that
// a local campaign wrote resumes in a distributed one, and the other way
// round — both modes give the sequence the name the log is keyed by — and
// the resumed merge is the one the first run made.
func TestCheckpointAcrossModes(t *testing.T) {
	mgr := server.NewManager(server.Config{MaxJobs: 2})
	ts := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	dir := t.TempDir()
	netPath, patPath := filepath.Join(dir, "inv.sim"), filepath.Join(dir, "inv.pat")
	for path, text := range map[string]string{netPath: invNet, patPath: invPatterns} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct{ name, first, second string }{
		{"local then distributed", "", ts.URL},
		{"distributed then local", ts.URL, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := filepath.Join(t.TempDir(), "ck")
			run := func(workers string) *campaign.Result {
				t.Helper()
				args := []string{"-net", netPath, "-patterns", patPath, "-observe", "out", "-batch", "1", "-checkpoint", ck}
				if workers != "" {
					args = append(args, "-workers", workers)
				}
				c, err := parse(args)
				if err != nil {
					t.Fatal(err)
				}
				res, err := runCampaign(c)
				if err != nil {
					t.Fatalf("%q: %v", args, err)
				}
				return res
			}
			first := run(tc.first)
			second := run(tc.second)
			if first.Batches < 2 || first.BatchesRun != first.Batches {
				t.Fatalf("first run: %d of %d batches run", first.BatchesRun, first.Batches)
			}
			if second.BatchesRun != 0 || second.BatchesResumed != second.Batches {
				t.Errorf("second run: %d run, %d resumed of %d", second.BatchesRun, second.BatchesResumed, second.Batches)
			}
			if !reflect.DeepEqual(first.Run, second.Run) || !reflect.DeepEqual(first.PerFault, second.PerFault) {
				t.Errorf("resumed merge differs:\n%+v\n%+v", second.Run, first.Run)
			}
		})
	}
}

// TestResumeWideRowCheckpoint: a checkpoint log an earlier build wrote,
// whose batch results still carry the per-setting and per-pattern fields
// the batch rows have since dropped (testdata/README.md), resumes with
// every batch resumed and nothing appended, and merges to the result a
// fresh run of the same campaign computes.
func TestResumeWideRowCheckpoint(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "ram64-stuck-wide-rows.ck"))
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "ck")
	if err := os.WriteFile(ck, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(extra ...string) *campaign.Result {
		t.Helper()
		args := append([]string{"-workload", "ram64", "-fault-model", "stuck", "-sample-every", "4", "-max-patterns", "10", "-batch", "16"}, extra...)
		c, err := parse(args)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runCampaign(c)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return res
	}
	resumed := run("-checkpoint", ck)
	fresh := run()
	if resumed.Batches != 7 || resumed.BatchesRun != 0 || resumed.BatchesResumed != resumed.Batches {
		t.Errorf("%d run, %d resumed of %d batches; want all 7 resumed", resumed.BatchesRun, resumed.BatchesResumed, resumed.Batches)
	}
	if !reflect.DeepEqual(resumed.Run, fresh.Run) || !reflect.DeepEqual(resumed.PerFault, fresh.PerFault) {
		t.Errorf("the resumed merge differs from a fresh run:\n%+v\n%+v", resumed.Run, fresh.Run)
	}
	if after, err := os.ReadFile(ck); err != nil || string(after) != string(golden) {
		t.Errorf("resuming rewrote the log (%v)", err)
	}
}
