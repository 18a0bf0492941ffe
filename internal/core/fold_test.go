package core_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// TestFoldMatchesRun: core.Fold over the RunBatch results of any
// windowing of the universe, folded in any order, is byte for byte (as
// core.Result JSON) what the monolithic Run folds as its patterns run.
// The whole universe as one batch is folded both as the one part of a
// fold and as one of two declared parts, so the running maximum of a
// one-batch fold meets the per-setting table of a fold of several.
func TestFoldMatchesRun(t *testing.T) {
	m := ram.RAM64()
	faults := m.PaperFaults()
	nf := len(faults)
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	tab := switchsim.NewTables(m.Net)
	for _, seq := range []*switchsim.Sequence{march.Sequence1(m), march.Sequence2(m)} {
		sim, err := core.New(m.Net, faults, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := resultJSON(t, sim.Run(seq))
		rec := core.RecordTables(tab, seq, opts)
		for _, size := range []int{nf, 16, 64} {
			var results []*core.BatchResult
			for lo := 0; lo < nf; lo += size {
				br, err := core.RunBatch(context.Background(), tab, faults[lo:min(lo+size, nf)], rec, seq, opts)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, br)
			}
			ascending := make([]int, len(results))
			for i := range ascending {
				ascending[i] = i
			}
			descending := slices.Clone(ascending)
			slices.Reverse(descending)
			shuffled := slices.Clone(ascending)
			rand.New(rand.NewSource(int64(size))).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			parts := []int{len(results)}
			if len(results) == 1 {
				parts = []int{1, 2}
			}
			for _, n := range parts {
				for oi, order := range [][]int{ascending, descending, shuffled} {
					f := core.NewFold(seq, nf, n)
					for _, i := range order {
						br := results[i]
						f.Add(br)
						for j := range br.NumFaults {
							f.Count(br.Detected[j], br.Detections[j], br.Oscillated[j])
						}
					}
					if got := resultJSON(t, f.Finish(rec.SettingWork, 0)); got != want {
						t.Errorf("%s, windows of %d folded %s as %d parts: the fold differs from Run\n got %.300s\nwant %.300s",
							seq.Name, size, [...]string{"ascending", "descending", "shuffled"}[oi], n, got, want)
					}
				}
			}
		}
	}
}

// TestFoldPadsSkippedBatches: a batch that never ran (a campaign's early
// stop) folds no rows, and its faults, never simulated and so never
// dropped, count as live before and after every pattern.
func TestFoldPadsSkippedBatches(t *testing.T) {
	m := ram.RAM64()
	faults := m.PaperFaults()
	nf, size := len(faults), 64
	seq := march.Sequence1(m)
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	sim, err := core.New(m.Net, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(seq)
	tab := switchsim.NewTables(m.Net)
	rec := core.RecordTables(tab, seq, opts)
	last := (nf - 1) / size * size
	f := core.NewFold(seq, nf, (nf+size-1)/size)
	var skippedRows *core.BatchResult
	for lo := 0; lo < nf; lo += size {
		br, err := core.RunBatch(context.Background(), tab, faults[lo:min(lo+size, nf)], rec, seq, opts)
		if err != nil {
			t.Fatal(err)
		}
		if lo == last {
			skippedRows = br
			continue
		}
		f.Add(br)
	}
	got := f.Finish(rec.SettingWork, nf-last)
	for pi, ps := range got.PerPattern {
		bp, w := skippedRows.PerPattern[pi], want.PerPattern[pi]
		if ps.LiveBefore != w.LiveBefore-bp.LiveBefore+nf-last || ps.LiveAfter != w.LiveAfter-bp.LiveAfter+nf-last {
			t.Fatalf("pattern %d: live %d → %d with the last %d faults skipped; the run's %d → %d, the batch's %d → %d",
				pi, ps.LiveBefore, ps.LiveAfter, nf-last, w.LiveBefore, w.LiveAfter, bp.LiveBefore, bp.LiveAfter)
		}
	}
}

// TestRunContinuesRunPattern: a Run after RunPattern calls goes on from
// where they left the circuits, and its rows, numbered on from the
// patterns already run, are the rows of one Run over the whole sequence.
func TestRunContinuesRunPattern(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	var sims [2]*core.Simulator
	for i := range sims {
		sim, err := core.New(m.Net, m.PaperFaults(), opts)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = sim
	}
	want := sims[0].Run(seq).PerPattern
	const done = 3
	for pi := range done {
		if got := sims[1].RunPattern(&seq.Patterns[pi]); got != want[pi] {
			t.Fatalf("RunPattern(%d) = %+v, Run's row %+v", pi, got, want[pi])
		}
	}
	rest := &switchsim.Sequence{Name: seq.Name, Patterns: seq.Patterns[done:]}
	for i, got := range sims[1].Run(rest).PerPattern {
		if got != want[done+i] {
			t.Fatalf("continued Run row %d = %+v, the whole Run's %+v", i, got, want[done+i])
		}
	}
}

func resultJSON(t *testing.T, r *core.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
