// The serial reference simulator and the paper's serial-time estimator.
// Package documentation lives in doc.go.
package serial

import (
	"fmt"

	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// Options configures a serial run.
type Options struct {
	// Observe lists the observed output nodes. Required.
	Observe []netlist.NodeID
	// StopOnDetect halts a fault's simulation at its first observed
	// difference (the paper's serial model). When false, every fault runs
	// the full sequence (used by equivalence tests).
	StopOnDetect bool
	// HardOnly requires both values definite for a detection.
	HardOnly bool
	// MaxRounds mirrors the concurrent option.
	MaxRounds int
}

// FaultResult is the serial outcome for one fault.
type FaultResult struct {
	Detected         bool
	Pattern, Setting int
	Output           netlist.NodeID
	Good, Faulty     logic.Value
	Hard             bool
	// PatternsSimulated counts the patterns executed for this fault
	// (= Pattern+1 when detected and stopped, else the whole sequence).
	PatternsSimulated int
	Work              int64
	Oscillated        bool
}

// Result aggregates a serial run.
type Result struct {
	NumFaults int
	PerFault  []FaultResult
	// GoodWork is the work of simulating the good circuit alone over the
	// full sequence; GoodPerPattern is its per-pattern breakdown.
	GoodWork       int64
	GoodPerPattern []int64
	// FaultWork is the summed work of all faulty-circuit simulations.
	FaultWork int64
}

// TotalWork returns good + faulty work units.
func (r *Result) TotalWork() int64 { return r.GoodWork + r.FaultWork }

// Detected counts detected faults.
func (r *Result) Detected() int {
	n := 0
	for _, fr := range r.PerFault {
		if fr.Detected {
			n++
		}
	}
	return n
}

// Coverage returns detected/total in [0,1].
func (r *Result) Coverage() float64 {
	if r.NumFaults == 0 {
		return 0
	}
	return float64(r.Detected()) / float64(r.NumFaults)
}

// goodTrace runs the good circuit over the sequence and records the
// observed output values after every setting, plus work accounting.
func goodTrace(tab *switchsim.Tables, seq *switchsim.Sequence, opts Options) (trace [][]logic.Value, perPattern []int64, total int64) {
	c := switchsim.NewCircuit(tab)
	sv := switchsim.NewSolver(tab)
	sv.MaxRounds = opts.MaxRounds
	sv.Init(c)
	w0 := sv.Work().Units()
	for pi := range seq.Patterns {
		p := &seq.Patterns[pi]
		for si := range p.Settings {
			sv.Step(c, p.Settings[si])
			vals := make([]logic.Value, len(opts.Observe))
			for i, o := range opts.Observe {
				vals[i] = c.Value(o)
			}
			trace = append(trace, vals)
		}
		w := sv.Work().Units()
		perPattern = append(perPattern, w-w0)
		w0 = w
	}
	return trace, perPattern, sv.Work().Units()
}

// Run performs a full serial fault simulation of the sequence.
func Run(nw *netlist.Network, faults []fault.Fault, seq *switchsim.Sequence, opts Options) (*Result, error) {
	if len(opts.Observe) == 0 {
		return nil, fmt.Errorf("serial: no observed outputs configured")
	}
	tab := switchsim.NewTables(nw)
	trace, perPattern, goodWork := goodTrace(tab, seq, opts)

	res := &Result{
		NumFaults:      len(faults),
		GoodWork:       goodWork,
		GoodPerPattern: perPattern,
	}

	c := switchsim.NewCircuit(tab)
	sv := switchsim.NewSolver(tab)
	sv.MaxRounds = opts.MaxRounds

	for _, f := range faults {
		fr := simulateFault(c, sv, f, seq, trace, opts)
		res.FaultWork += fr.Work
		res.PerFault = append(res.PerFault, fr)
	}
	return res, nil
}

func simulateFault(c *switchsim.Circuit, sv *switchsim.Solver, f fault.Fault, seq *switchsim.Sequence, trace [][]logic.Value, opts Options) FaultResult {
	w0 := sv.Work().Units()
	c.ClearFaults()
	c.Reset()
	f.Apply(c) // SettleAll covers the apply perturbations
	osc := sv.SettleAll(c).Oscillated

	fr := FaultResult{Pattern: -1, Setting: -1}
	step := 0
patterns:
	for pi := range seq.Patterns {
		p := &seq.Patterns[pi]
		fr.PatternsSimulated++
		for si := range p.Settings {
			res := sv.Step(c, p.Settings[si])
			osc = osc || res.Oscillated
			if p.ObserveAt(si) && !fr.Detected {
				for oi, o := range opts.Observe {
					gv := trace[step][oi]
					fv := c.Value(o)
					if fv == gv {
						continue
					}
					hard := gv.Definite() && fv.Definite()
					if opts.HardOnly && !hard {
						continue
					}
					fr.Detected = true
					fr.Pattern, fr.Setting = pi, si
					fr.Output, fr.Good, fr.Faulty, fr.Hard = o, gv, fv, hard
					break
				}
			}
			step++
		}
		if fr.Detected && opts.StopOnDetect {
			break patterns
		}
	}
	fr.Oscillated = osc
	fr.Work = sv.Work().Units() - w0
	return fr
}

// Estimate reproduces the paper's serial-time estimator: the sum over all
// faults of the number of patterns required to detect the fault (the full
// sequence length for undetected faults) times the average cost of
// simulating the good circuit for one pattern. detPattern[i] is the
// 0-based pattern index of fault i's first detection, or -1 if
// undetected; goodPerPattern is the good circuit's per-pattern cost in
// any unit (work or nanoseconds); the estimate is returned in that unit.
func Estimate(detPattern []int, goodPerPattern []int64, nPatterns int) int64 {
	if nPatterns == 0 || len(goodPerPattern) == 0 {
		return 0
	}
	var goodTotal int64
	for _, w := range goodPerPattern {
		goodTotal += w
	}
	avg := float64(goodTotal) / float64(len(goodPerPattern))
	var est float64
	for _, dp := range detPattern {
		n := nPatterns
		if dp >= 0 {
			n = dp + 1
		}
		est += avg * float64(n)
	}
	return int64(est)
}
