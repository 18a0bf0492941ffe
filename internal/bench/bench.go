// Experiment harness entry points and the paper's fault universes.
// Package documentation lives in doc.go.
package bench

import (
	"fmt"
	"io"
	"time"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/serial"
	"fmossim/internal/stats"
	"fmossim/internal/switchsim"
)

// PaperFaults returns the paper's fault universe for a RAM instance (see
// ram.RAM.PaperFaults).
func PaperFaults(m *ram.RAM) []fault.Fault { return m.PaperFaults() }

// NodeStuckOnly returns just the storage-node stuck-at universe (the
// Figure 1/2 working set).
func NodeStuckOnly(m *ram.RAM) []fault.Fault {
	return fault.NodeStuckFaults(m.Net, fault.Options{})
}

// CurveRow is one pattern's measurements: one x-position of the paper's
// Figure 1/2 curves.
type CurveRow struct {
	Pattern int
	Name    string
	// Work is the concurrent simulator's work units spent on the
	// pattern; GoodWork the share spent on the good circuit. NS is the
	// wall-clock nanoseconds of the pattern's RunPattern call, taken
	// around it (the result itself carries no clock).
	Work, GoodWork int64
	NS             int64
	// GoodOnlyWork is the pattern's cost in the reference good-only run.
	GoodOnlyWork int64
	// CumDetected is the cumulative number of faults detected (the
	// rising curve); Live the circuits still simulated after the
	// pattern; MaxActive the peak circuits re-simulated in one setting.
	CumDetected, Live, MaxActive int
}

// CurveResult is a full Figure 1/2 style experiment.
type CurveResult struct {
	Circuit  string
	Sequence string
	Faults   int
	Rows     []CurveRow

	// HeadPatterns is the boundary between the sequence's "head"
	// (control/row/column sections) and "tail" (array march).
	HeadPatterns int

	Detected   int
	Undetected []string

	// Totals, in work units.
	ConcurrentWork int64 // good + faulty within the concurrent run
	GoodOnlyWork   int64 // the good circuit alone over the sequence
	SerialEstWork  int64 // the paper's serial estimator

	// Wall-clock totals in nanoseconds.
	ConcurrentNS int64

	// Shape metrics (see paper §5).
	HeadWorkFraction float64 // fraction of concurrent work in the head (paper Fig.1: 71%)
	TailSlowdown     float64 // tail work per pattern vs good-only (paper: ≈3)
	ConcVsGood       float64 // concurrent/good-only (paper Fig.1: 21.9/2.7 ≈ 8.1)
	SerialVsConc     float64 // serial-estimate/concurrent (paper Fig.1: ≈18, Fig.2: ≈9)
}

// RunCurve performs a Figure 1/2 style experiment: simulate the fault set
// over the sequence concurrently, with a good-only reference run, and
// derive the shape metrics. headPatterns splits head from tail (87 for
// sequence 1 on RAM64: 7 control + 40 row + 40 column).
func RunCurve(m *ram.RAM, faults []fault.Fault, seq *switchsim.Sequence, headPatterns int) (*CurveResult, error) {
	goodRes, err := goodOnly(m, seq)
	if err != nil {
		return nil, err
	}

	sim, err := core.New(m.Net, faults, core.Options{Observe: []netlist.NodeID{m.DataOut}})
	if err != nil {
		return nil, err
	}

	r := &CurveResult{
		Circuit:      fmt.Sprintf("RAM%d", m.Conf.Bits()),
		Sequence:     seq.Name,
		Faults:       len(faults),
		HeadPatterns: headPatterns,
		GoodOnlyWork: goodRes.GoodWork,
	}

	cum := 0
	for pi := range seq.Patterns {
		t0 := time.Now()
		ps := sim.RunPattern(&seq.Patterns[pi])
		ns := time.Since(t0).Nanoseconds()
		cum += ps.Detected
		r.Rows = append(r.Rows, CurveRow{
			Pattern:      pi,
			Name:         seq.Patterns[pi].Name,
			Work:         ps.Work(),
			GoodWork:     ps.GoodWork,
			NS:           ns,
			GoodOnlyWork: goodRes.GoodPerPattern[pi],
			CumDetected:  cum,
			Live:         ps.LiveAfter,
			MaxActive:    ps.MaxActive,
		})
		r.ConcurrentWork += ps.Work()
		r.ConcurrentNS += ns
	}
	r.Detected = cum
	for i := range faults {
		if _, ok := sim.Detected(i); !ok {
			r.Undetected = append(r.Undetected, faults[i].Describe(m.Net))
		}
	}
	r.SerialEstWork = serialEstimate(sim, len(faults), goodRes)

	// Shape metrics.
	var headWork int64
	var tailWork, tailGood []float64
	for _, row := range r.Rows {
		if row.Pattern < headPatterns {
			headWork += row.Work
		} else {
			tailWork = append(tailWork, float64(row.Work))
			tailGood = append(tailGood, float64(row.GoodOnlyWork))
		}
	}
	r.HeadWorkFraction = stats.Ratio(float64(headWork), float64(r.ConcurrentWork))
	r.TailSlowdown = stats.Ratio(stats.Mean(tailWork), stats.Mean(tailGood))
	r.ConcVsGood = stats.Ratio(float64(r.ConcurrentWork), float64(r.GoodOnlyWork))
	r.SerialVsConc = stats.Ratio(float64(r.SerialEstWork), float64(r.ConcurrentWork))
	return r, nil
}

// goodOnly runs the good circuit alone over seq, observing m's data
// output: the good-only reference every figure compares against, and the
// per-pattern cost basis of the serial estimate.
func goodOnly(m *ram.RAM, seq *switchsim.Sequence) (*serial.Result, error) {
	return serial.Run(m.Net, nil, seq, serial.Options{Observe: []netlist.NodeID{m.DataOut}})
}

// serialEstimate is the paper's serial estimate (serial.Estimate) for the
// nf faults sim simulated: each costs good's average pattern up to its
// first-detecting pattern, or the whole sequence when undetected.
func serialEstimate(sim *core.Simulator, nf int, good *serial.Result) int64 {
	det := make([]int, nf)
	for i := range det {
		det[i] = -1
		if d, ok := sim.Detected(i); ok {
			det[i] = d.Pattern
		}
	}
	return serial.Estimate(det, good.GoodPerPattern, len(good.GoodPerPattern))
}

// Fig1 reproduces Figure 1: RAM64 under test sequence 1 with the
// stuck-at fault universe.
func Fig1() (*CurveResult, error) {
	m := ram.RAM64()
	return RunCurve(m, NodeStuckOnly(m), march.Sequence1(m), 87)
}

// Fig2 reproduces Figure 2: the same simulation with the row and column
// marches omitted (test sequence 2), so only the 7 control patterns form
// the head.
func Fig2() (*CurveResult, error) {
	m := ram.RAM64()
	return RunCurve(m, NodeStuckOnly(m), march.Sequence2(m), 7)
}

// WriteCurveCSV emits the per-pattern series (both curves of the figure).
func WriteCurveCSV(w io.Writer, r *CurveResult) error {
	if _, err := fmt.Fprintln(w, "pattern,name,work,good_work,good_only_work,ns,cum_detected,live,max_active"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d,%d\n",
			row.Pattern, row.Name, row.Work, row.GoodWork, row.GoodOnlyWork,
			row.NS, row.CumDetected, row.Live, row.MaxActive); err != nil {
			return err
		}
	}
	return nil
}

// Summarize writes the figure's headline numbers next to the paper's.
func (r *CurveResult) Summarize(w io.Writer, paper CurveShape) {
	fmt.Fprintf(w, "%s / %s: %d patterns, %d faults, detected %d (%.1f%%)\n",
		r.Circuit, r.Sequence, len(r.Rows), r.Faults, r.Detected,
		100*core.Coverage(r.Detected, r.Faults))
	fmt.Fprintf(w, "  concurrent work %d, good-only %d, serial estimate %d\n",
		r.ConcurrentWork, r.GoodOnlyWork, r.SerialEstWork)
	fmt.Fprintf(w, "  %-28s %10s %10s\n", "shape metric", "measured", "paper")
	fmt.Fprintf(w, "  %-28s %10.2f %10.2f\n", "concurrent/good ratio", r.ConcVsGood, paper.ConcVsGood)
	fmt.Fprintf(w, "  %-28s %10.2f %10.2f\n", "serial/concurrent ratio", r.SerialVsConc, paper.SerialVsConc)
	fmt.Fprintf(w, "  %-28s %10.2f %10.2f\n", "head work fraction", r.HeadWorkFraction, paper.HeadFraction)
	fmt.Fprintf(w, "  %-28s %10.2f %10.2f\n", "tail slowdown vs good", r.TailSlowdown, paper.TailSlowdown)
	if len(r.Undetected) > 0 {
		fmt.Fprintf(w, "  undetected (%d):", len(r.Undetected))
		for _, u := range r.Undetected {
			fmt.Fprintf(w, " %s;", u)
		}
		fmt.Fprintln(w)
	}
}

// CurveShape is the paper's published shape for a figure.
type CurveShape struct {
	ConcVsGood, SerialVsConc, HeadFraction, TailSlowdown float64
}

// Paper-published shapes.
var (
	// PaperFig1: 21.9 min concurrent vs 2.7 min good (×8.1), serial 404
	// min (×18 vs concurrent), 71% of time in the first 87 patterns,
	// tail ≈3× good-only.
	PaperFig1 = CurveShape{ConcVsGood: 8.1, SerialVsConc: 18, HeadFraction: 0.71, TailSlowdown: 3}
	// PaperFig2: 49 min concurrent vs 2.7-ish good-only over the shorter
	// sequence; serial 448 min (×9). The paper gives no head fraction or
	// tail factor; the defining feature is the much smaller
	// serial/concurrent ratio and the slow decay.
	PaperFig2 = CurveShape{ConcVsGood: 18, SerialVsConc: 9, HeadFraction: 0.07, TailSlowdown: 0}
)
