package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// rearmRun is what one batch run shows from outside: the result's bytes,
// the route statistics and every OnObserve call.
type rearmRun struct {
	bin    []byte
	replay switchsim.ReplayStats
	trim   TrimStats
	calls  []BatchProgress
}

// runRearmWindow runs b (already built or re-armed over its window) over
// rec and collects what it shows; calls must be the slice its OnObserve
// hook appends to.
func runRearmWindow(t *testing.T, b *FaultBatch, calls *[]BatchProgress, rec *switchsim.Recording, seq *switchsim.Sequence) rearmRun {
	t.Helper()
	*calls = nil
	br, err := b.RunRecording(context.Background(), rec, seq)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := br.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("after the run: %v", err)
	}
	return rearmRun{bin: bin, replay: b.ReplayStats(), trim: b.TrimStats(), calls: *calls}
}

// TestRearmedBatchMatchesFresh: one batch re-armed with Reset through
// every 64-fault window of RAM64 sequences 1 and 2 runs each window
// exactly as a fresh batch does (RunBatch's path): the same result bytes,
// ReplayStats, TrimStats and OnObserve calls, with the invariants holding
// after every Reset. The windows run in order, then with the narrow last
// window first, over the stuck-at and paper universes and a mix with
// literal duplicates (so classes collapse) that never drops (so every
// window ends with live circuits, records and interest rows for the next
// Reset to clear), on one worker and on three; the fresh reference runs on
// one (every result and count is the same for every worker count). Under
// the race detector, which slows a replay some twentyfold, only the
// three-worker fan-out runs, over each sequence's first 8 patterns: a
// Reset racing a lane fan-out shows there.
func TestRearmedBatchMatchesFresh(t *testing.T) {
	m := ram.RAM64()
	tab := switchsim.NewTables(m.Net)
	paper := m.PaperFaults()
	// Every other paper fault, every third of those twice: the mix never
	// drops, so it is the costliest universe here.
	var dup []fault.Fault
	for i := 0; i < len(paper); i += 2 {
		dup = append(dup, paper[i])
		if i%3 == 0 {
			dup = append(dup, paper[i])
		}
	}
	universes := []struct {
		name   string
		faults []fault.Fault
		trim   bool
		drop   DropPolicy
	}{
		{"stuck", fault.NodeStuckFaults(m.Net, fault.Options{}), false, DropAnyDifference},
		{"paper", paper, false, DropAnyDifference},
		{"duplicated", dup, true, NeverDrop},
	}
	seqs := []*switchsim.Sequence{march.Sequence1(m), march.Sequence2(m)}
	workerCounts := []int{1, 3}
	if raceDetector {
		workerCounts = workerCounts[1:]
		for _, seq := range seqs {
			seq.Patterns = seq.Patterns[:8]
		}
	}
	const width = 64

	for _, seq := range seqs {
		rec := RecordTables(tab, seq, Options{})
		for _, u := range universes {
			var windows [][2]int
			for lo := 0; lo < len(u.faults); lo += width {
				windows = append(windows, [2]int{lo, min(lo+width, len(u.faults))})
			}
			if windows[len(windows)-1][1]-windows[len(windows)-1][0] == width {
				t.Fatalf("%s: %d faults leave no narrow last window", u.name, len(u.faults))
			}
			lastFirst := append([][2]int{windows[len(windows)-1]}, windows[:len(windows)-1]...)
			var calls []BatchProgress
			opts := Options{
				Observe: []netlist.NodeID{m.DataOut}, Workers: 1, Trim: u.trim, Drop: u.drop,
				OnObserve: func(p BatchProgress) {
					p.Detected = append([]int(nil), p.Detected...)
					calls = append(calls, p)
				},
			}
			fresh := make(map[[2]int]rearmRun)
			for _, w := range windows {
				b, err := NewFaultBatch(tab, u.faults[w[0]:w[1]], opts)
				if err != nil {
					t.Fatal(err)
				}
				fresh[w] = runRearmWindow(t, b, &calls, rec, seq)
			}
			for _, workers := range workerCounts {
				opts.Workers = workers
				for oi, order := range [][][2]int{windows, lastFirst} {
					name := fmt.Sprintf("%s/%s/%s/workers %d", seq.Name, u.name, [...]string{"in order", "last first"}[oi], workers)
					var b *FaultBatch
					for _, w := range order {
						var err error
						if b == nil {
							b, err = NewFaultBatch(tab, u.faults[w[0]:w[1]], opts)
						} else {
							err = b.Reset(u.faults[w[0]:w[1]], opts)
						}
						if err != nil {
							t.Fatal(err)
						}
						if err := b.CheckInvariants(); err != nil {
							t.Fatalf("%s, window %v after Reset: %v", name, w, err)
						}
						got, want := runRearmWindow(t, b, &calls, rec, seq), fresh[w]
						if !bytes.Equal(got.bin, want.bin) {
							t.Fatalf("%s, window %v: re-armed result differs from a fresh batch's", name, w)
						}
						if got.replay != want.replay || got.trim != want.trim {
							t.Fatalf("%s, window %v: replay %+v trim %+v, fresh batch %+v %+v",
								name, w, got.replay, got.trim, want.replay, want.trim)
						}
						if !reflect.DeepEqual(got.calls, want.calls) {
							t.Fatalf("%s, window %v: OnObserve calls differ from a fresh batch's", name, w)
						}
						if u.trim && w == windows[0] && got.trim.LanesFreed == 0 {
							t.Fatalf("%s: the first window collapses no class", name)
						}
					}
				}
			}
		}
	}
}
