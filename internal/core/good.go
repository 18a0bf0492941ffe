// Good-circuit producer: simulates the fault-free circuit and emits one
// switchsim.StepTrace per step. The trace is everything a FaultBatch needs
// to execute the step's faulty circuits — input deltas and the settle
// trajectory, whose member and change lists are the step's explored and
// changed sets — so producer and consumer are fully decoupled: a trace
// can be consumed live (zero-copy, borrowing solver scratch) or captured
// into a switchsim.Recording and replayed later by any number of
// independent batches without re-running the good solver.
package core

import (
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// goodRunner owns the good circuit and its recording solver.
type goodRunner struct {
	tab    *switchsim.Tables
	good   *switchsim.Circuit
	gsolve *switchsim.Solver

	// trace is the reusable live trace; inputBuf backs its InputChanges.
	// Both are valid until the next step.
	trace    switchsim.StepTrace
	inputBuf []switchsim.Change
}

func newGoodRunner(tab *switchsim.Tables, opts Options) *goodRunner {
	g := &goodRunner{
		tab:    tab,
		good:   switchsim.NewCircuit(tab),
		gsolve: switchsim.NewSolver(tab),
	}
	g.gsolve.Record = true
	g.gsolve.MaxRounds = opts.MaxRounds
	return g
}

// init runs the power-on initialization settle (every storage node
// perturbed from the reset state) and returns its borrowed trace.
func (g *goodRunner) init() *switchsim.StepTrace {
	w0 := g.gsolve.Work()
	res := g.gsolve.SettleAll(g.good)
	return g.fill(true, nil, res, w0)
}

// step applies one input setting, settles the good circuit, and returns
// the borrowed trace. Input changes are computed against the pre-step
// values, so the trace carries exactly the assignments that perturb any
// circuit (an unchanged input is a no-op in faulty circuits too).
func (g *goodRunner) step(setting switchsim.Setting) *switchsim.StepTrace {
	w0 := g.gsolve.Work()
	g.inputBuf = g.inputBuf[:0]
	for _, a := range setting {
		if g.good.Value(a.Node) != a.Value {
			g.inputBuf = append(g.inputBuf, switchsim.Change{Node: a.Node, Value: a.Value})
		}
	}
	seeds := g.gsolve.ApplySetting(g.good, setting)
	res := g.gsolve.Settle(g.good, seeds)
	return g.fill(false, g.inputBuf, res, w0)
}

// fill assembles the borrowed step trace from a settle result and the
// recorded trajectory.
func (g *goodRunner) fill(init bool, inputs []switchsim.Change, res switchsim.SettleResult, w0 switchsim.Work) *switchsim.StepTrace {
	g.trace = switchsim.StepTrace{
		Init:         init,
		InputChanges: inputs,
		Oscillated:   res.Oscillated,
		Traj:         &g.gsolve.Traj,
		GoodWork:     g.gsolve.Work().Sub(w0).Units(),
	}
	return &g.trace
}

// Record simulates only the good circuit through an entire test sequence
// and captures its trajectory as a reusable, serializable Recording: the
// power-on initialization plus one step per input setting. Fault batches
// replay the recording without any good-circuit solver work — the
// record-once/replay-many half of the campaign engine. It is Capture with
// Recording.Append as the sink.
//
// Only the good-side option (MaxRounds) is consulted; Observe and the
// fault-side options configure consumers, not the capture.
func Record(nw *netlist.Network, seq *switchsim.Sequence, opts Options) *switchsim.Recording {
	return RecordTables(switchsim.NewTables(nw), seq, opts)
}

// RecordTables is Record over tables the caller already holds, so a
// caller that goes on to replay the recording over tab builds them once.
func RecordTables(tab *switchsim.Tables, seq *switchsim.Sequence, opts Options) *switchsim.Recording {
	rec := switchsim.NewRecording(tab.Net)
	rec.Steps = make([]switchsim.StepTrace, 0, 1+seq.NumSettings())
	Capture(tab, seq, opts, rec.Append)
	return rec
}

// Capture simulates the good circuit over tab through seq and hands sink
// each step's trace as it is produced: the initialization, then one per
// setting in order, each with its trajectory, oscillated or not (the trace
// is borrowed: it aliases solver scratch and is valid only during the
// call). A sink keeps it by copying (Recording.Append) or encoding
// (switchsim.StepWriter.Append) it. Options as for Record.
func Capture(tab *switchsim.Tables, seq *switchsim.Sequence, opts Options, sink func(*switchsim.StepTrace)) {
	g := newGoodRunner(tab, opts)
	sink(g.init())
	for pi := range seq.Patterns {
		p := &seq.Patterns[pi]
		for i := range p.Settings {
			sink(g.step(p.Settings[i]))
		}
	}
}
