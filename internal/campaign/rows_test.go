package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
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
				opts.Remote = func(l *Ledger) func(context.Context, int, int, *core.BatchResult) (*core.BatchResult, error) {
					return func(ctx context.Context, _, i int, _ *core.BatchResult) (*core.BatchResult, error) {
						lo, hi := l.Window(i)
						return core.RunBatch(ctx, tab, l.Faults()[lo:hi], rec, seq, sim)
					}
				}
			}
			run := func(stage string, resumed int) {
				t.Helper()
				l, _, err := Execute(context.Background(), m.Net, faults, seq, opts, nil)
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

// TestRemoteSlotDecodesIntoReleasedRows: from its second batch on, a
// Remote slot is handed the row tables its previous batch released, and
// a result decoded into them (core.BatchResult.UnmarshalBinary) fills
// them in place; a local campaign handed the caller's slots stores the
// batches it built back and re-arms the same batches in the next
// campaign. Every run merges to the Result of a plain Run.
func TestRemoteSlotDecodesIntoReleasedRows(t *testing.T) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	seq := march.Sequence1(m)
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	sim := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	tab := switchsim.NewTables(m.Net)
	rec := core.RecordTables(tab, seq, sim)
	const shards = 2
	opts := Options{Sim: sim, BatchSize: 4, Shards: shards, Recording: rec, Tables: tab}
	want, err := Run(context.Background(), m.Net, faults, seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	finish := func(tag string, opts Options, slots []*core.FaultBatch) *Result {
		t.Helper()
		l, _, err := Execute(context.Background(), m.Net, faults, seq, opts, slots)
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Finish(rec.SettingWork)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Run, want.Run) || !reflect.DeepEqual(res.PerFault, want.PerFault) {
			t.Fatalf("%s: the merge differs from Run's", tag)
		}
		return res
	}

	var mu sync.Mutex
	handed, filled := 0, 0
	remote := opts
	remote.Remote = func(l *Ledger) func(context.Context, int, int, *core.BatchResult) (*core.BatchResult, error) {
		return func(ctx context.Context, _, i int, into *core.BatchResult) (*core.BatchResult, error) {
			lo, hi := l.Window(i)
			br, err := core.RunBatch(ctx, tab, l.Faults()[lo:hi], rec, seq, sim)
			if err != nil {
				return nil, err
			}
			bin, err := br.AppendBinary(nil)
			if err != nil {
				return nil, err
			}
			rows := into.PerSetting
			if err := into.UnmarshalBinary(bin); err != nil {
				return nil, err
			}
			mu.Lock()
			defer mu.Unlock()
			if rows != nil {
				handed++
				if &into.PerSetting[0] == &rows[0] {
					filled++
				}
			}
			return into, nil
		}
	}
	res := finish("remote", remote, nil)
	if handed < res.BatchesRun-shards || filled != handed {
		t.Fatalf("%d batches on %d slots: %d were handed released tables and %d decoded into them", res.BatchesRun, shards, handed, filled)
	}

	slots := make([]*core.FaultBatch, shards)
	finish("local, first campaign", opts, slots)
	kept := slices.Clone(slots)
	if slices.Contains(kept, nil) {
		t.Fatal("Execute did not store the slots' batches back")
	}
	finish("local, second campaign", opts, slots)
	if !slices.Equal(slots, kept) {
		t.Fatal("the second campaign did not re-arm the first one's batches")
	}
}
