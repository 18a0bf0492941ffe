// Fault-circuit execution engine: materialization by copy plus parallel
// execution of activated circuits.
//
// Materialization. A faulty circuit's pre-step view is the good circuit's
// pre-step state (prev) overlaid with the circuit's divergence records and
// fault pin. A lane-step is copy, overlay, settle, diff, drop the fault: the
// worker's scratch circuit takes prev's node values and transistor states in
// two memmoves, the records and the fault go on top, and after the diff only
// the fault's one pin or force is lifted — whatever else the settle left in
// the scratch is overwritten by the next lane's copy. Every lane starts from
// the same prev, so there is nothing to revert to and nothing to keep in
// sync between settings (DESIGN.md "Materialization by copy" has the
// measurements and the circuit size at which a revert would pay again).
//
// Memory pooling. The diff pass tests record membership with a node-indexed
// bitmap and compares old values through a dense value array. Those dense
// mirrors are worker-owned scratch, populated from the circuit's sparse
// record store on entry and cleared on exit of each stepFaulty (the bitmap
// whole: a few words, cheaper than revisiting the records). Per-fault
// memory is therefore only the sparse store itself: total bookkeeping is
// O(workers × nodes + total divergence), not O(faults × nodes).
//
// Parallelism. Given the good trajectory, the pre-step state, and the good
// post-step state, the activated circuits of one setting are mutually
// independent: each reads only shared immutable state and its own records,
// and writes only its own diff. Circuits are therefore fanned out over the
// batch's workers (fanout.Each), each owning a private scratch circuit and
// solver; divergence-record write-back (the only mutation of shared
// structures) is deferred and merged on the coordinating goroutine in
// ascending circuit-id order, so results are bit-identical to serial
// execution for every worker count. The inline case is the same body on
// one worker, not a second copy.
package core

import (
	"fmossim/internal/fanout"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// minParallelBatch is the smallest activated-circuit count worth paying
// goroutine dispatch for; below it the fan-out runs on one worker, inline.
const minParallelBatch = 8

// recOp is one deferred divergence-record mutation: set (insert/update)
// or clear.
type recOp struct {
	n   netlist.NodeID
	v   logic.Value
	set bool
}

// stepResult locates one activated circuit's diff in its worker's op
// arena.
type stepResult struct {
	wid, lo, hi int32
	osc         bool
}

// laneInputs are one setting's lane-step inputs: set by runActivated
// before the fan-out and read by every lane, never written during it.
type laneInputs struct {
	setting     switchsim.Setting
	extraSeeds  []netlist.NodeID
	traj        *switchsim.Trajectory
	goodChanged []switchsim.Change
}

// faultWorker owns the per-goroutine state needed to execute one faulty
// circuit at a time: the scratch circuit each lane is materialized into, a
// private solver, the pooled dense record mirrors, and epoch-stamped diff
// scratch.
type faultWorker struct {
	batch   *FaultBatch
	scratch *switchsim.Circuit
	solve   *switchsim.Solver

	// Diff dedup stamps.
	diffStamp []uint32
	diffEpoch uint32

	// Pooled dense record mirrors of the circuit currently executing:
	// recBits is a node-indexed membership bitmap over its record store
	// and recVal a node-indexed copy of the record values (meaningful
	// only where the bit is set). Populated and cleared per stepFaulty,
	// so the allocation is per worker, not per fault.
	recBits []uint64
	recVal  []logic.Value

	// ops is the worker's diff arena for the current setting.
	ops []recOp

	// credit is the work credited to the class members of the
	// representatives this worker stepped: each one's solver-work delta,
	// once per member (see trim.go). Per worker, so the fan-out shares no
	// counter; faultWork sums it, and the sum is order-independent.
	credit switchsim.Work

	// onLane is a test hook: called with the circuit once its pre-step view
	// is materialized (materialized true, before the setting is applied) and
	// again once its fault is dropped (materialized false).
	onLane func(ci CircuitID, materialized bool)
}

func newFaultWorker(b *FaultBatch) *faultWorker {
	n := b.nw.NumNodes()
	return &faultWorker{
		batch:     b,
		scratch:   switchsim.NewCircuit(b.tab),
		solve:     switchsim.NewSolver(b.tab),
		diffStamp: make([]uint32, n),
		recBits:   make([]uint64, (n+63)/64),
		recVal:    make([]logic.Value, n),
	}
}

// reset arms a worker for its batch's current window (see
// FaultBatch.Reset): the counters start over and the round limit is the
// window's; the scratch circuit, the solver's arrays and the diff scratch
// are kept, the diff epoch counting on.
func (w *faultWorker) reset() {
	w.solve.MaxRounds = w.batch.opts.MaxRounds
	w.solve.ResetWork()
	w.credit = switchsim.Work{}
	w.onLane = nil
}

// diffNode compares the scratch (faulty) state against the good post-step
// state at node n and appends the record mutation, if any, to the op
// arena. Nodes already diffed this epoch are skipped. Input nodes are
// diffed too: a forced (faulted) input diverges from the good circuit's
// input value.
func (w *faultWorker) diffNode(n netlist.NodeID) {
	if w.diffStamp[n] == w.diffEpoch {
		return
	}
	w.diffStamp[n] = w.diffEpoch
	fv := w.scratch.Value(n)
	hasRec := hasNodeBit(w.recBits, n)
	if fv != w.batch.good.Value(n) {
		if !hasRec || w.recVal[n] != fv {
			w.ops = append(w.ops, recOp{n: n, v: fv, set: true})
		}
	} else if hasRec {
		w.ops = append(w.ops, recOp{n: n, set: false})
	}
}

func (w *faultWorker) diffNodes(nodes []netlist.NodeID) {
	for _, n := range nodes {
		w.diffNode(n)
	}
}

func (w *faultWorker) diffChanges(chs []switchsim.Change) {
	for _, ch := range chs {
		w.diffNode(ch.Node)
	}
}

// stepFaulty re-simulates faulty circuit ci for the current setting: a
// serial-fidelity replay of the setting against the circuit's own
// pre-step state. The perturbation seeds are exactly those a standalone
// serial simulation would use — the circuit's own response to the input
// setting — so the replay's event order, and therefore every
// transient-sensitive charge state, matches a serial simulation
// bit-for-bit. The scheduler's interest hits decide only *whether* the
// circuit runs, never what it re-solves.
//
// The scratch circuit is materialized from prev, patched with the circuit's
// records and fault, settled and diffed against the good post-step state
// into the op arena; the fault is dropped before returning, so the scratch
// carries no pin and no force between lane-steps. The returned range
// [lo,hi) locates the circuit's ops; osc reports an oscillation.
//
// The initialization step is where a fault enters its circuit: the first
// materialization applies it to the reset state, and the diff always
// covers the forced node, so a defect is present from power-on — the
// serial reference's reset + inject + settle-all.
func (w *faultWorker) stepFaulty(ci CircuitID) (lo, hi int, osc bool) {
	b := w.batch
	in := &b.in
	fs := b.faults[ci-1]

	// Materialize the faulty circuit's pre-step view: copy prev, overlay
	// the divergence records (populating the pooled dense mirrors in the
	// same walk), fix up transistor states for divergent gates, and apply
	// the fault pin. Applying the fault is a materialization fix-up (the
	// copied transistor states are the good circuit's), not a
	// perturbation, so its seeds are discarded.
	w.scratch.CopyStateFrom(b.prev)
	for i, n := range fs.recs.nodes {
		v := fs.recs.vals[i]
		w.scratch.OverrideValue(n, v)
		setNodeBit(w.recBits, n)
		w.recVal[n] = v
	}
	for _, n := range fs.recs.nodes {
		w.scratch.RefreshGates(n)
	}
	fs.f.Apply(w.scratch)
	if w.onLane != nil {
		w.onLane(ci, true)
	}

	seeds := in.extraSeeds
	if in.setting != nil {
		seeds = w.solve.ApplySetting(w.scratch, in.setting)
	}

	// The prebuilt per-setting index carries this circuit's static
	// divergence set in its lane of the interest-mask rows (divergence
	// records with their gated channel terminals, plus the fault sites), so
	// no per-circuit trajectory indexing or seeding happens here — see
	// runActivated and SettleReplayIndexed. An oscillated good step has no
	// trajectory to follow: the same loop then runs with no index and
	// solves every vicinity.
	ix := b.ix
	if in.traj == nil {
		ix = nil
	}
	word, bit := b.lane(ci)
	res := w.solve.SettleReplayIndexed(w.scratch, seeds, ix, word, bit)

	// Diff: the faulty state may now differ from the good post-step state
	// anywhere the faulty settle explored, anywhere the good circuit
	// changed (divergence by inaction: the faulty circuit's wave was
	// blocked where the good circuit's was not), and at the forced node.
	nodeFault := fs.f.Kind.IsNodeFault()
	w.diffEpoch++
	lo = len(w.ops)
	w.diffNodes(res.Explored)
	w.diffChanges(in.goodChanged)
	if nodeFault {
		w.diffNode(fs.f.Node)
	}
	hi = len(w.ops)

	// Drop the fault: CopyStateFrom carries values and transistor states
	// only, so the one pin or force this lane applied is all the next
	// lane's copy would not overwrite. The pooled bitmap is cleared here
	// too (recVal needs no clearing: it is meaningful only under set bits).
	if nodeFault {
		w.scratch.DropForce(fs.f.Node)
	} else {
		w.scratch.DropPin(fs.f.Trans)
	}
	clear(w.recBits)
	if w.onLane != nil {
		w.onLane(ci, false)
	}
	return lo, hi, res.Oscillated
}

// applyOps merges one circuit's deferred record mutations into its record
// store and the interest rows. Called on the coordinating goroutine only,
// in ascending circuit-id order. A clear re-derives interest bits from the
// circuit's remaining records, read from the wbRecs bitmap: the first clear
// op fills it from the store, the ops after it keep it in step, and it is
// cleared whole after the last. A circuit whose ops only set never fills it.
func (b *FaultBatch) applyOps(ci CircuitID, ops []recOp, osc bool) {
	fs := b.faults[ci-1]
	if osc {
		fs.oscillated = true
	}
	filled := false
	for _, op := range ops {
		if op.set {
			b.setRecord(op.n, ci, op.v)
			if filled {
				setNodeBit(b.wbRecs, op.n)
			}
			continue
		}
		if !filled {
			for _, n := range fs.recs.nodes {
				setNodeBit(b.wbRecs, n)
			}
			filled = true
		}
		b.clearRecord(op.n, ci)
	}
	if filled {
		clear(b.wbRecs)
	}
}

// runActivated executes the scheduled active circuits and merges their
// diffs deterministically: one fan-out over the active list (inline on
// workers[0] below minParallelBatch circuits or with a pool of one), then
// write-back in ascending circuit-id order, whichever worker computed what
// and whenever it finished.
//
// The replay index is built here, on demand: a setting that activates no
// circuit (a third of them on the RAM workloads) never pays for one. One
// shared index serves every activated lane: the trajectory indexing and
// static-flag closure a per-circuit replay would recompute is paid once for
// the whole word group. interestMask is exactly the per-lane static
// divergence rows, and the build precedes every write-back of the setting —
// write-back only ever mutates a circuit's own lane bits, so the snapshot
// taken here matches what each circuit would have seeded at its own turn.
// The good wave is compiled in the same place, from prev (the pre-step
// state every lane is materialized from, which nothing writes until the
// step's end), for the lanes about to run; index and wave are read-only
// during the fan-out.
func (b *FaultBatch) runActivated(in laneInputs) {
	if len(b.active) == 0 {
		return
	}
	b.in = in
	if in.traj != nil {
		b.ix.Build(in.traj, b.words, b.interestMask, b.interestNZ)
		if !b.noCompile {
			b.ix.Compile(b.prev, in.setting, in.extraSeeds, b.activeMask())
		}
	}
	k := len(b.workers)
	if len(b.active) < minParallelBatch {
		k = 1
	}
	for _, w := range b.workers[:k] {
		w.ops = w.ops[:0]
	}
	fanout.Each(len(b.active), k, b.laneStep)
	for i, ci := range b.active {
		r := b.results[i]
		b.applyOps(ci, b.workers[r.wid].ops[r.lo:r.hi], r.osc)
	}
}

// stepLane is the fan-out body, bound once at construction as laneStep
// (the method value escapes into the pool, so binding it per setting
// would allocate per setting): worker wid steps the i-th active circuit
// into its own arena and result slot. A class representative's work delta
// is credited once per member (a scheduled representative is live, and its
// members with it), so work totals stay byte-identical to the untrimmed
// run.
func (b *FaultBatch) stepLane(wid, i int) {
	w := b.workers[wid]
	ci := b.active[i]
	members := len(b.faults[ci-1].classMembers)
	var w0 switchsim.Work
	if members > 0 {
		w0 = w.solve.Work()
	}
	lo, hi, osc := w.stepFaulty(ci)
	if members > 0 {
		w.credit.Add(w.solve.Work().Sub(w0).Scaled(int64(members)))
	}
	b.results[i] = stepResult{wid: int32(wid), lo: int32(lo), hi: int32(hi), osc: osc}
}

// activeMask returns the lane bits of the scheduled active circuits, in the
// index's word layout.
func (b *FaultBatch) activeMask() []uint64 {
	m := b.activeWords
	clear(m)
	for _, ci := range b.active {
		word, bit := b.lane(ci)
		m[word] |= 1 << bit
	}
	return m
}

// ReplayStats reports how the batch's indexed replays got to their
// results: indexes built, good waves compiled, lanes replayed, and what the
// fast-forward skipped (see switchsim.ReplayStats). Like TrimStats it
// describes the route, not the result, and is never part of BatchResult;
// unlike the work counters it may differ between two code versions that
// agree on every result.
func (b *FaultBatch) ReplayStats() switchsim.ReplayStats {
	rs := switchsim.ReplayStats{Builds: int64(b.ix.Builds()), Compiles: b.ix.Compiles()}
	for _, w := range b.workers {
		rs.Add(w.solve.ReplayStats())
	}
	return rs
}

// faultWork sums the fault-side solver work counters across the pool,
// plus the work each worker credited to class members (their
// representative's, fanned out — see trim.go). Each circuit's work is
// deterministic and the sum is order-independent, so the total is
// identical for every worker count (and wherever a fault sits in the
// packed words: the per-lane replay examines only its own lane's
// divergence).
func (b *FaultBatch) faultWork() switchsim.Work {
	var t switchsim.Work
	for _, w := range b.workers {
		t.Add(w.solve.Work())
		t.Add(w.credit)
	}
	return t
}
