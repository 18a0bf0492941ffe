package core

import (
	"fmt"
	"io"

	"fmossim/internal/switchsim"
)

// SettingStats is one row of a batch's per-setting table: the fault-side
// figures of one input setting. Every field is deterministic: identical
// for every worker count and shard split, and wherever a fault's lane
// sits. A row holds only what some reader takes from it — Fold sums
// ActiveCircuits and FaultWork, and the benchmark harness sums the four
// lane columns; the row's position in the table is its setting, and the
// good side is the recording's.
type SettingStats struct {
	// ActiveCircuits is the number of faulty circuits re-simulated.
	ActiveCircuits int
	// FaultWork is the faulty circuits' deterministic solver work units.
	FaultWork int64

	// Lane occupancy: LanesReplayed counts activated circuits settled
	// against the shared trajectory index this setting; ScalarFallbacks
	// counts those the settle loop ran with no index, solving every
	// vicinity (the good step oscillated). The two split ActiveCircuits
	// exactly.
	LanesReplayed, ScalarFallbacks int
	// AdoptedVics/SolvedVics split the replayed circuits' vicinity
	// servicing: trajectory vicinities adopted whole vs solved with full
	// switch-level dynamics.
	AdoptedVics, SolvedVics int64
}

// BatchPattern is one row of a batch's per-pattern table: the three
// counts Fold cannot rebuild from the per-setting rows. The row's
// position is its pattern; the rest of a PatternStats (name, setting
// count, peak and summed work) Fold rebuilds from the sequence, the good
// work and the per-setting rows.
type BatchPattern struct {
	// LiveBefore/LiveAfter bracket the pattern; Detected counts faults
	// first detected during it.
	LiveBefore, LiveAfter int
	Detected              int
}

// PatternStats instruments one pattern (one clock cycle of settings).
type PatternStats struct {
	Pattern  int
	Name     string
	Settings int
	// LiveBefore/LiveAfter bracket the pattern; Detected counts faults
	// first detected during it.
	LiveBefore, LiveAfter int
	Detected              int
	// MaxActive is the peak number of simultaneously re-simulated
	// circuits in any setting of the pattern.
	MaxActive           int
	GoodWork, FaultWork int64
}

// Work returns the pattern's total work units (good + faulty).
func (p PatternStats) Work() int64 { return p.GoodWork + p.FaultWork }

// Result is the outcome of simulating a sequence.
type Result struct {
	Sequence   string
	NumFaults  int
	PerPattern []PatternStats

	// Detected is the number of detected faults; HardDetected counts
	// those whose first detection was definite-vs-definite.
	Detected     int
	HardDetected int
	// Oscillated counts faulty circuits that ever hit the round limit.
	Oscillated int

	// Totals.
	GoodWork, FaultWork int64
}

// Fold is the one assembly of a Result. A monolithic run folds its one
// batch's rows as the patterns run; a campaign folds its batches' row
// tables as they come free. The per-pattern rows are the sums: fault
// work and live and detected counts add up across batches (each fault
// lives in exactly one), in any order. MaxActive, the peak over a
// pattern's settings of the summed ActiveCircuits, is a running maximum
// in a fold of one batch, whose rows already are the sums; a fold of
// several sums a per-setting table and takes the maximum at Finish.
type Fold struct {
	r *Result
	// active[si] sums the batches' ActiveCircuits of input setting si
	// (from 0 in sequence order); nil in a fold of one batch.
	active []int
}

// NewFold opens the fold of a Result over seq and nf faults split into
// parts batches; a fold of one part takes one batch's rows at most. It
// returns the fold by value, so a live run keeps it on its stack; use it
// through one address, as copies share their sums.
func NewFold(seq *switchsim.Sequence, nf, parts int) Fold {
	f := Fold{r: &Result{Sequence: seq.Name, NumFaults: nf, PerPattern: make([]PatternStats, len(seq.Patterns))}}
	for pi, p := range seq.Patterns {
		f.r.PerPattern[pi] = PatternStats{Pattern: pi, Name: p.Name, Settings: len(p.Settings)}
	}
	if parts > 1 {
		f.active = make([]int, seq.NumSettings())
	}
	return f
}

// Add folds a batch result's row tables. br must have the shape of the
// fold's sequence (campaign.Ledger.Check).
func (f *Fold) Add(br *BatchResult) {
	si := 0
	for pi := range f.r.PerPattern {
		ps := &f.r.PerPattern[pi]
		for range ps.Settings {
			f.setting(ps, si, 0, br.PerSetting[si])
			si++
		}
		f.pattern(ps, br.PerPattern[pi])
	}
}

// setting folds setting si's good work and fault-side row into row ps.
func (f *Fold) setting(ps *PatternStats, si int, goodWork int64, st SettingStats) {
	ps.GoodWork += goodWork
	ps.FaultWork += st.FaultWork
	if f.active == nil {
		ps.MaxActive = max(ps.MaxActive, st.ActiveCircuits)
	} else {
		f.active[si] += st.ActiveCircuits
	}
}

// pattern folds a batch's per-pattern row into the pattern's row ps.
func (f *Fold) pattern(ps *PatternStats, bp BatchPattern) {
	ps.LiveBefore += bp.LiveBefore
	ps.LiveAfter += bp.LiveAfter
	ps.Detected += bp.Detected
}

// Count counts one fault's outcome into the Detected, HardDetected and
// Oscillated totals.
func (f *Fold) Count(detected bool, det Detection, oscillated bool) {
	if detected {
		f.r.Detected++
		if det.Hard {
			f.r.HardDetected++
		}
	}
	if oscillated {
		f.r.Oscillated++
	}
}

// Finish completes the Result, once: goodWork(si) is the good work of
// setting si (Recording.SettingWork), nil when a live run folded it as
// it stepped; skipped faults, whose batches never ran, count as live
// through every pattern.
func (f *Fold) Finish(goodWork func(si int) int64, skipped int) *Result {
	r := f.r
	si := 0
	for pi := range r.PerPattern {
		ps := &r.PerPattern[pi]
		ps.LiveBefore += skipped
		ps.LiveAfter += skipped
		for range ps.Settings {
			if goodWork != nil {
				ps.GoodWork += goodWork(si)
			}
			if f.active != nil {
				ps.MaxActive = max(ps.MaxActive, f.active[si])
			}
			si++
		}
		r.GoodWork += ps.GoodWork
		r.FaultWork += ps.FaultWork
	}
	return r
}

// Coverage returns the fault coverage in [0,1].
func (r *Result) Coverage() float64 { return Coverage(r.Detected, r.NumFaults) }

// Coverage is the one definition of fault coverage: the detected fraction
// of a fault universe, in [0,1], and 0 for an empty universe.
func Coverage(detected, faults int) float64 {
	if faults == 0 {
		return 0
	}
	return float64(detected) / float64(faults)
}

// TotalWork returns the run's total deterministic work units.
func (r *Result) TotalWork() int64 { return r.GoodWork + r.FaultWork }

// CumulativeDetections returns, per pattern index, the total number of
// faults detected up to and including that pattern: the rising curve of
// the paper's Figures 1 and 2.
func (r *Result) CumulativeDetections() []int {
	out := make([]int, len(r.PerPattern))
	c := 0
	for i, ps := range r.PerPattern {
		c += ps.Detected
		out[i] = c
	}
	return out
}

// WorkPerPattern returns per-pattern total work units: the falling curve
// of Figures 1 and 2.
func (r *Result) WorkPerPattern() []int64 {
	out := make([]int64, len(r.PerPattern))
	for i, ps := range r.PerPattern {
		out[i] = ps.Work()
	}
	return out
}

// Summary writes a human-readable run summary.
func (r *Result) Summary(w io.Writer) {
	fmt.Fprintf(w, "sequence %q: %d patterns, %d faults\n", r.Sequence, len(r.PerPattern), r.NumFaults)
	fmt.Fprintf(w, "  detected: %d (%.1f%%), hard %d, oscillated %d\n",
		r.Detected, 100*r.Coverage(), r.HardDetected, r.Oscillated)
	fmt.Fprintf(w, "  work: good %d + faulty %d = %d units\n", r.GoodWork, r.FaultWork, r.TotalWork())
}
