package bench

import (
	"fmt"
	"io"
	"math/rand"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/stats"
	"fmossim/internal/switchsim"
)

// FaultClassRow is one fault class's cost/detection profile: the paper's
// §5 validation that stuck-open/stuck-closed transistor faults "did not
// differ significantly" from node faults.
type FaultClassRow struct {
	Class          string
	Faults         int
	Detected       int
	WorkPerFault   float64
	MedianDetectAt float64 // median detecting pattern among detected faults
}

// FaultClasses compares the performance characteristics of the fault
// classes on a RAM instance under sequence 1, using an equal-size random
// sample from each class.
func FaultClasses(m *ram.RAM, perClass int, seed int64) ([]FaultClassRow, error) {
	seq := march.Sequence1(m)
	rng := rand.New(rand.NewSource(seed))
	classes := []struct {
		name string
		fs   []fault.Fault
	}{
		{"node stuck-at", fault.NodeStuckFaults(m.Net, fault.Options{})},
		{"transistor stuck", fault.TransistorStuckFaults(m.Net, fault.Options{})},
		{"bit-line shorts", fault.BridgeFaults(m.BitlineShorts)},
	}
	var rows []FaultClassRow
	for _, cl := range classes {
		fs := fault.Sample(cl.fs, perClass, rng)
		sim, err := core.New(m.Net, fs, core.Options{Observe: []netlist.NodeID{m.DataOut}})
		if err != nil {
			return nil, err
		}
		res := sim.Run(seq)
		var detAt []float64
		for i := range fs {
			if d, ok := sim.Detected(i); ok {
				detAt = append(detAt, float64(d.Pattern))
			}
		}
		rows = append(rows, FaultClassRow{
			Class:          cl.name,
			Faults:         len(fs),
			Detected:       res.Detected,
			WorkPerFault:   stats.Ratio(float64(res.TotalWork()), float64(len(fs))),
			MedianDetectAt: stats.Median(detAt),
		})
	}
	return rows, nil
}

// WriteFaultClasses renders the class comparison.
func WriteFaultClasses(w io.Writer, rows []FaultClassRow) {
	fmt.Fprintf(w, "  %-18s %7s %9s %14s %14s\n", "class", "faults", "detected", "work/fault", "median det-at")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %7d %9d %14.0f %14.0f\n",
			r.Class, r.Faults, r.Detected, r.WorkPerFault, r.MedianDetectAt)
	}
}

// AblationResult reports a design-choice ablation as a work ratio.
type AblationResult struct {
	Name           string
	BaselineWork   int64 // the paper's design
	AblatedWork    int64 // the design choice disabled
	PenaltyFactor  float64
	BaselineDetect int
	AblatedDetect  int
}

// AblationDropping measures fault dropping: the same run with NeverDrop.
// Without dropping, every detected circuit keeps being simulated, so the
// tail-end advantage the paper attributes to dropping disappears.
func AblationDropping(m *ram.RAM, faults []fault.Fault, seq *switchsim.Sequence) (*AblationResult, error) {
	base, err := core.New(m.Net, faults, core.Options{Observe: []netlist.NodeID{m.DataOut}})
	if err != nil {
		return nil, err
	}
	bres := base.Run(seq)
	abl, err := core.New(m.Net, faults, core.Options{
		Observe: []netlist.NodeID{m.DataOut}, Drop: core.NeverDrop,
	})
	if err != nil {
		return nil, err
	}
	ares := abl.Run(seq)
	return &AblationResult{
		Name:           "fault dropping",
		BaselineWork:   bres.TotalWork(),
		AblatedWork:    ares.TotalWork(),
		PenaltyFactor:  stats.Ratio(float64(ares.TotalWork()), float64(bres.TotalWork())),
		BaselineDetect: bres.Detected,
		AblatedDetect:  ares.Detected,
	}, nil
}

// Summarize renders an ablation result.
func (r *AblationResult) Summarize(w io.Writer) {
	fmt.Fprintf(w, "  %-20s baseline %12d ablated %12d penalty ×%.2f (detected %d vs %d)\n",
		r.Name, r.BaselineWork, r.AblatedWork, r.PenaltyFactor, r.BaselineDetect, r.AblatedDetect)
}
