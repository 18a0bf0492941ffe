package core

import (
	"fmt"
	"io"
)

// SettingStats is one row of a batch's per-setting table: the fault-side
// figures of one input setting. Every field is deterministic: identical
// for every worker count and shard split, and wherever a fault's lane
// sits. A row holds only what some reader takes from it —
// campaign.Merge sums ActiveCircuits and FaultWork, and the benchmark
// harness sums the four lane columns; the row's position in the table is
// its setting, and the good side is the recording's.
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
// counts campaign.Merge cannot rebuild from the per-setting rows. The
// row's position is its pattern; the rest of a PatternStats (name,
// setting count, peak and summed work) is rebuilt at merge from the
// sequence, the recording and the per-setting rows.
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

func (r *Result) finish(b *FaultBatch) {
	for _, ps := range r.PerPattern {
		r.GoodWork += ps.GoodWork
		r.FaultWork += ps.FaultWork
	}
	for fi, fs := range b.faults {
		if fs.detected {
			r.Detected++
			if fs.det.Hard {
				r.HardDetected++
			}
		}
		if b.Oscillated(fi) {
			r.Oscillated++
		}
	}
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
