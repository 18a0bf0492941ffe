package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestExecuteHoldsOneRowTablePerSlot: once the ledger has folded a batch
// and the checkpoint has logged it, the slot that ran it takes its row
// tables for its next batch. So after Execute runs N batches on k slots,
// at most k results still hold a per-setting table — locally and through
// a Remote — and a batch resumed from the checkpoint holds none; Finish
// folds the rest. Every run merges to the same Result.
func TestExecuteHoldsOneRowTablePerSlot(t *testing.T) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	seq := march.Sequence1(m)
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	sim := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	tab := switchsim.NewTables(m.Net)
	rec := core.RecordTables(tab, seq, sim)
	const batchSize = 4
	var want *Result
	for _, shards := range []int{1, 2, 3} {
		for _, remote := range []bool{false, true} {
			tag := fmt.Sprintf("shards %d, remote %v", shards, remote)
			ckPath := filepath.Join(t.TempDir(), "campaign.ck")
			opts := Options{Sim: sim, BatchSize: batchSize, Shards: shards, Recording: rec, Tables: tab, CheckpointPath: ckPath}
			if remote {
				opts.Remote = func(l *Ledger) func(context.Context, int, int) (*core.BatchResult, error) {
					return func(ctx context.Context, _, i int) (*core.BatchResult, error) {
						lo, hi := l.Window(i)
						return core.RunBatch(ctx, tab, l.Faults()[lo:hi], rec, seq, sim)
					}
				}
			}
			run := func(stage string, resumed int) {
				t.Helper()
				l, _, err := Execute(context.Background(), m.Net, faults, seq, opts)
				if err != nil {
					t.Fatal(err)
				}
				held := 0
				for _, br := range l.results {
					if br.PerSetting != nil {
						held++
					}
				}
				res, err := l.Finish(rec.SettingWork)
				if err != nil {
					t.Fatal(err)
				}
				for i, br := range l.results {
					if br.PerSetting != nil || br.PerPattern != nil {
						t.Fatalf("%s, %s: batch %d holds its rows after Finish folded them", tag, stage, i)
					}
				}
				if res.Batches < 3*shards || res.BatchesResumed != resumed {
					t.Fatalf("%s, %s: %d batches, %d resumed; want at least %d, %d resumed", tag, stage, res.Batches, res.BatchesResumed, 3*shards, resumed)
				}
				if ran := res.BatchesRun; held > min(ran, shards) || ran > 0 && held == 0 {
					t.Fatalf("%s, %s: %d results hold a per-setting table after %d batches ran on %d slots", tag, stage, held, ran, shards)
				}
				if want == nil {
					want = res
				}
				if !reflect.DeepEqual(res.Run, want.Run) || !reflect.DeepEqual(res.PerFault, want.PerFault) {
					t.Fatalf("%s, %s: the merge differs from the first run's", tag, stage)
				}
			}
			run("every batch run", 0)
			data, err := os.ReadFile(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			run("every batch resumed", bytes.Count(data, []byte("\n"))-1)
			lines := bytes.SplitAfter(data, []byte("\n"))
			half := (len(lines) - 2) / 2
			if err := os.WriteFile(ckPath, bytes.Join(lines[:1+half], nil), 0o644); err != nil {
				t.Fatal(err)
			}
			run("half the batches resumed", half)
		}
	}
}
