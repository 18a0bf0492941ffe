// Shared simulator types (options, detections, drop policies, fault
// state) and the monolithic Simulator wiring one good-circuit producer to
// one full-universe FaultBatch. Package documentation lives in doc.go.
package core

import (
	"context"
	"fmt"

	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// CircuitID identifies a circuit: 0 is the good circuit, faulty circuits
// are 1 + index into the fault list.
type CircuitID int32

// GoodCircuit is the id of the fault-free circuit.
const GoodCircuit CircuitID = 0

// DropPolicy selects when a detected fault's circuit is dropped.
type DropPolicy uint8

const (
	// DropAnyDifference drops a fault the first time its observed output
	// differs from the good circuit in any way, including X-vs-definite
	// (potential) differences. This matches the paper: "Any time the
	// simulation of a faulty circuit produces a result on the output data
	// pin different than the good circuit simulation, the fault is
	// considered detected, and the simulation of that circuit is dropped."
	DropAnyDifference DropPolicy = iota
	// DropHardOnly drops only on hard detections (both values definite
	// and different); potential differences are recorded but the circuit
	// stays live.
	DropHardOnly
	// NeverDrop records detections but keeps simulating every circuit:
	// the fault-dropping ablation.
	NeverDrop
)

// String names the policy.
func (p DropPolicy) String() string {
	switch p {
	case DropAnyDifference:
		return "drop-any-difference"
	case DropHardOnly:
		return "drop-hard-only"
	case NeverDrop:
		return "never-drop"
	}
	return fmt.Sprintf("DropPolicy(%d)", uint8(p))
}

// Options configures a concurrent fault simulation.
type Options struct {
	// Observe lists the observed output nodes. Required.
	Observe []netlist.NodeID
	// Drop selects the dropping policy; default DropAnyDifference.
	Drop DropPolicy
	// MaxRounds overrides the solver round limit (0 = default).
	MaxRounds int
	// Workers sets the number of fault-circuit execution workers. The
	// activated circuits of a setting are independent given the good
	// trajectory and the pre-step state, so they are sharded across
	// Workers goroutines, each owning a private scratch circuit and
	// solver; divergence-record write-back is merged in ascending
	// circuit-id order, so results are bit-identical to serial execution
	// for every Workers value. 0 selects runtime.GOMAXPROCS(0); 1 runs
	// fully inline.
	Workers int
	// Trim is read by nothing: redundancy trimming (trim.go) is how every
	// batch runs. The field exists only until a benchmark PR stops
	// benchmarks/ from setting it (workloads.go and layers.go do).
	Trim bool
	// OnObserve, when non-nil, is invoked by every run (Simulator.Run and
	// RunPattern, FaultBatch.RunRecording) after every input setting with
	// that setting's progress. It is called synchronously from the running
	// goroutine and must be fast; it never affects simulation results and
	// is excluded from campaign checkpoint fingerprints.
	OnObserve func(BatchProgress)
}

// BatchProgress is one setting's progress report from a run: the
// position in the sequence, the batch's live-fault count after any
// observation, and the batch fault indices first detected by this
// setting's observation (nil when none, or when the setting had no observe
// point).
type BatchProgress struct {
	Pattern, Setting int
	LiveFaults       int
	Detected         []int
	// DetectedTotal is the cumulative number of detected faults in the
	// batch after this setting.
	DetectedTotal int
}

// Detection describes the first detection of one fault.
type Detection struct {
	// Pattern and Setting locate the detecting observation.
	Pattern, Setting int
	Output           netlist.NodeID
	Good, Faulty     logic.Value
	// Hard reports both values were definite (a tester would see it).
	Hard bool
}

// faultState carries the per-fault bookkeeping. Its only per-node storage
// is the sparse divergence store: the dense bitmap/value mirrors the diff
// pass needs are pooled per worker (see faultWorker), so total fault
// bookkeeping scales with the divergence actually present, not with
// faults × nodes.
type faultState struct {
	f        fault.Fault
	sites    []netlist.NodeID // static interest sites
	detected bool
	dropped  bool
	det      Detection
	// recs is the authoritative divergence store: the faulty circuit's
	// state at each node where it differs from the good circuit.
	recs recStore
	// oscillated notes any settle of this circuit hit the round limit.
	oscillated bool

	// Equivalence-class bookkeeping (see trim.go): repFi is
	// the batch index of the representative this fault is collapsed onto
	// (-1: it runs in its own lane); classMembers, on a representative, the
	// batch indices of the faults collapsed onto it.
	repFi        int
	classMembers []int
}

// Simulator is the concurrent fault simulator: a good-circuit producer
// wired to a single FaultBatch covering the entire fault universe.
type Simulator struct {
	nw    *netlist.Network
	gr    *goodRunner
	batch *FaultBatch
}

// New builds a concurrent simulator over a finalized network with the
// given fault list. The good circuit is initialized and fully settled, and
// every faulty circuit with it, its fault inserted at the reset state,
// before the first pattern, so faults that corrupt the quiescent state are
// detectable from pattern one.
func New(nw *netlist.Network, faults []fault.Fault, opts Options) (*Simulator, error) {
	tab := switchsim.NewTables(nw)
	gr := newGoodRunner(tab, opts)
	batch, err := NewFaultBatch(tab, faults, opts)
	if err != nil {
		return nil, err
	}
	s := &Simulator{nw: nw, gr: gr, batch: batch}
	// Power-on initialization, run as a concurrent step: it inserts the
	// faults (see FaultBatch.Step).
	batch.Step(gr.init())
	return s, nil
}

// Network returns the simulated network.
func (s *Simulator) Network() *netlist.Network { return s.nw }

// Good returns the good circuit (read-only use).
func (s *Simulator) Good() *switchsim.Circuit { return s.gr.good }

// NumFaults returns the size of the fault list.
func (s *Simulator) NumFaults() int { return s.batch.NumFaults() }

// Fault returns the fault at index fi.
func (s *Simulator) Fault(fi int) fault.Fault { return s.batch.Fault(fi) }

// Detected reports whether fault fi has been detected, with details.
func (s *Simulator) Detected(fi int) (Detection, bool) { return s.batch.Detected(fi) }

// Oscillated reports whether fault fi's circuit ever hit the oscillation
// limit.
func (s *Simulator) Oscillated(fi int) bool { return s.batch.Oscillated(fi) }

// LiveFaults returns the number of circuits still being simulated, O(1).
func (s *Simulator) LiveFaults() int { return s.batch.Live() }

// Records returns a copy of the divergence records of fault fi: the faulty
// circuit's state wherever it differs from the good circuit.
func (s *Simulator) Records(fi int) map[netlist.NodeID]logic.Value {
	return s.batch.Records(fi)
}

// FaultValue returns the state of node n in faulty circuit fi: the
// divergence record if present, the good-circuit state otherwise. The
// good state is the simulator's own good circuit: the batch's mirror of
// it stops once every circuit is dropped.
func (s *Simulator) FaultValue(fi int, n netlist.NodeID) logic.Value {
	if v, ok := s.batch.resolveFault(fi).recs.get(n); ok {
		return v
	}
	return s.gr.good.Value(n)
}

// Workers returns the size of the fault-circuit worker pool.
func (s *Simulator) Workers() int { return len(s.batch.workers) }

// CheckInvariants verifies the record stores and that the interest rows
// are exactly the relation the fault sites and records define (see
// FaultBatch.CheckInvariants); it is exported for tests and costs
// O(faults × records + nodes × lane words), so production loops should
// not call it per setting.
func (s *Simulator) CheckInvariants() error { return s.batch.CheckInvariants() }

// StepSetting advances every live circuit through one input setting: the
// good circuit first, then each activated faulty circuit in ascending
// circuit-id order (the paper's circuit-by-circuit event processing).
// Returns the setting's fault-side row, the one a batch result carries
// (the good circuit's work is not in it).
func (s *Simulator) StepSetting(setting switchsim.Setting) SettingStats {
	return s.batch.Step(s.gr.step(setting))
}

// RunPattern advances the simulation through one pattern: all of its
// settings, observing outputs per the pattern's observation points.
// Returns the pattern's statistics.
func (s *Simulator) RunPattern(p *switchsim.Pattern) PatternStats {
	var goodWork int64
	next := func(i int) *switchsim.StepTrace {
		trace := s.gr.step(p.Settings[i])
		goodWork += trace.GoodWork
		return trace
	}
	// RunPattern takes no context: nothing cancels a monolithic run, so
	// runPattern cannot fail.
	ps, _ := s.batch.runPattern(context.TODO(), p, next, nil)
	ps.GoodWork = goodWork
	return ps
}

// Run simulates an entire test sequence, returning the aggregated result.
func (s *Simulator) Run(seq *switchsim.Sequence) *Result {
	r := &Result{
		Sequence:   seq.Name,
		NumFaults:  s.batch.NumFaults(),
		PerPattern: make([]PatternStats, 0, len(seq.Patterns)),
	}
	for i := range seq.Patterns {
		ps := s.RunPattern(&seq.Patterns[i])
		r.PerPattern = append(r.PerPattern, ps)
	}
	r.finish(s.batch)
	return r
}
