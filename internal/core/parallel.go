// Fault-circuit execution engine: activity-proportional materialization
// plus parallel execution of activated circuits.
//
// Materialization. A faulty circuit's pre-step view is the good circuit's
// pre-step state (prev) overlaid with the circuit's divergence records and
// fault pin. Instead of copying the whole state per circuit (O(nodes +
// transistors)), each worker keeps a scratch circuit that is a standing
// mirror of prev: a step overlays only the records and the fault, settles,
// diffs, and then reverts exactly the touched nodes — the overlay set, the
// changed inputs, and the settle's changed set — via an undo log. The cost
// of simulating a circuit is therefore proportional to its activity, never
// to circuit size, which is the paper's central scaling claim carried down
// into the constant factors.
//
// Memory pooling. The diff pass tests record membership with a node-indexed
// bitmap and compares old values through a dense value array. Those dense
// mirrors are worker-owned scratch, populated from the circuit's sparse
// record store on entry and cleared on exit of each stepFaulty (cost ∝
// records, which the overlay walks anyway). Per-fault memory is therefore
// only the sparse store itself: total bookkeeping is O(workers × nodes +
// total divergence), not O(faults × nodes).
//
// Parallelism. Given the good trajectory, the pre-step state, and the good
// post-step state, the activated circuits of one setting are mutually
// independent: each reads only shared immutable state and its own records,
// and writes only its own diff. Circuits are therefore sharded across a
// worker pool, each worker owning a private scratch circuit and solver;
// divergence-record write-back (the only mutation of shared structures) is
// deferred and merged on the coordinating goroutine in ascending
// circuit-id order, so results are bit-identical to serial execution for
// every worker count.
package core

import (
	"sync"
	"sync/atomic"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// minParallelBatch is the smallest activated-circuit count worth paying
// goroutine dispatch for; below it the inline path wins.
const minParallelBatch = 8

// recOp is one deferred divergence-record mutation: set (insert/update)
// or clear.
type recOp struct {
	n   netlist.NodeID
	v   logic.Value
	set bool
}

// stepResult locates one activated circuit's diff in its worker's op
// arena. work carries the circuit's solver-work delta when the circuit is
// a collapsed-class representative (measured so the members' credit can
// be fanned out at write-back).
type stepResult struct {
	wid    int
	lo, hi int
	osc    bool
	work   switchsim.Work
}

// faultWorker owns the per-goroutine state needed to execute one faulty
// circuit at a time: the scratch mirror of prev, a private solver, the
// undo log, the pooled dense record mirrors, and epoch-stamped diff
// scratch.
type faultWorker struct {
	batch   *FaultBatch
	scratch *switchsim.Circuit
	solve   *switchsim.Solver

	// Undo log: the nodes whose scratch state diverged from the prev
	// mirror during the current circuit's step.
	undoStamp []uint32
	undoEpoch uint32
	undo      []netlist.NodeID

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

	// deltaPos marks how far into the batch's delta log this worker's
	// scratch mirror has been synced (see catchUp).
	deltaPos int

	// ops is the worker's diff arena for the current setting.
	ops []recOp
}

func newFaultWorker(b *FaultBatch) *faultWorker {
	n := b.nw.NumNodes()
	w := &faultWorker{
		batch:     b,
		scratch:   switchsim.NewCircuit(b.tab),
		solve:     switchsim.NewSolver(b.tab),
		undoStamp: make([]uint32, n),
		diffStamp: make([]uint32, n),
		recBits:   make([]uint64, (n+63)/64),
		recVal:    make([]logic.Value, n),
	}
	w.solve.StaticLocality = b.opts.StaticLocality
	w.solve.MaxRounds = b.opts.MaxRounds
	return w
}

// catchUp replays the batch's pending delta-log suffix into this worker's
// scratch mirror, bringing it up to prev (the current pre-step state).
// Syncing is lazy and per-worker: the coordinator only appends deltas to
// the shared log (and advances prev), and each worker catches up on its
// own goroutine the next time it executes a circuit — so mirror
// maintenance parallelizes instead of costing O(delta × workers) serial
// time per setting, and workers idle through a quiet stretch pay nothing
// until they run again. The log is read-only during fan-outs; it is
// appended and trimmed only between them (see trimDeltaLog).
func (w *faultWorker) catchUp() {
	b := w.batch
	if w.deltaPos == len(b.deltaLog) {
		return
	}
	for _, ch := range b.deltaLog[w.deltaPos:] {
		w.scratch.OverrideValue(ch.Node, ch.Value)
		w.scratch.RefreshGates(ch.Node)
	}
	w.deltaPos = len(b.deltaLog)
}

// noteUndo stamps node n into the current circuit's undo set.
func (w *faultWorker) noteUndo(n netlist.NodeID) {
	if w.undoStamp[n] != w.undoEpoch {
		w.undoStamp[n] = w.undoEpoch
		w.undo = append(w.undo, n)
	}
}

// diffNode compares the scratch (faulty) state against the good post-step
// state at node n and appends the record mutation, if any, to the op
// arena. Nodes already diffed this epoch are skipped. Input nodes are
// diffed too: a forced (faulted) input diverges from the good circuit's
// input value.
func (w *faultWorker) diffNode(fs *faultState, n netlist.NodeID) {
	if w.diffStamp[n] == w.diffEpoch {
		return
	}
	w.diffStamp[n] = w.diffEpoch
	fv := w.scratch.Value(n)
	hasRec := w.recBits[uint(n)>>6]>>(uint(n)&63)&1 != 0
	if fv != w.batch.good.Value(n) {
		if !hasRec || w.recVal[n] != fv {
			w.ops = append(w.ops, recOp{n: n, v: fv, set: true})
		}
	} else if hasRec {
		w.ops = append(w.ops, recOp{n: n, set: false})
	}
}

func (w *faultWorker) diffNodes(fs *faultState, nodes []netlist.NodeID) {
	for _, n := range nodes {
		w.diffNode(fs, n)
	}
}

func (w *faultWorker) diffChanges(fs *faultState, chs []switchsim.Change) {
	for _, ch := range chs {
		w.diffNode(fs, ch.Node)
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
// The scratch circuit enters as a mirror of prev, is patched with the
// circuit's records and fault, settled, diffed against the good post-step
// state into the op arena, and reverted to the mirror before returning.
// The returned range [lo,hi) locates the circuit's ops; osc reports an
// oscillation.
func (w *faultWorker) stepFaulty(ci CircuitID, setting switchsim.Setting, extraSeeds []netlist.NodeID, traj *switchsim.Trajectory, goodChanged []switchsim.Change) (lo, hi int, osc bool) {
	b := w.batch
	fs := b.faults[ci-1]
	w.catchUp()

	// Materialize the faulty circuit's pre-step view: overlay the
	// divergence records (populating the pooled dense mirrors in the same
	// walk), fix up transistor states for divergent gates, and apply the
	// fault pin. Re-applying the fault is a materialization fix-up (the
	// mirrored transistor states are the good circuit's), not a
	// perturbation, so its seeds are discarded.
	w.undoEpoch++
	w.undo = w.undo[:0]
	for i, n := range fs.recs.nodes {
		v := fs.recs.vals[i]
		w.scratch.OverrideValue(n, v)
		w.recBits[uint(n)>>6] |= 1 << (uint(n) & 63)
		w.recVal[n] = v
		w.noteUndo(n)
	}
	for _, n := range fs.recs.nodes {
		w.scratch.RefreshGates(n)
	}
	fs.f.Apply(w.scratch)
	nodeFault := fs.f.Kind.IsNodeFault()
	if nodeFault {
		w.noteUndo(fs.f.Node)
	}

	seeds := extraSeeds
	if setting != nil {
		for _, a := range setting {
			if w.scratch.Value(a.Node) != a.Value {
				w.noteUndo(a.Node)
			}
		}
		seeds = w.solve.ApplySetting(w.scratch, setting)
	}

	var res switchsim.SettleResult
	if traj != nil {
		// The prebuilt per-setting index carries this circuit's static
		// divergence set in its lane of the interest-mask rows (divergence
		// records with their gated channel terminals, plus the fault
		// sites), so no per-circuit trajectory indexing or seeding happens
		// here — see runActivated and SettleReplayIndexed.
		word, bit := b.lane(ci)
		res = w.solve.SettleReplayIndexed(w.scratch, seeds, b.ix, word, bit)
	} else {
		res = w.solve.Settle(w.scratch, seeds)
	}

	// Diff: the faulty state may now differ from the good post-step state
	// anywhere the faulty settle explored, anywhere the good circuit
	// changed (divergence by inaction: the faulty circuit's wave was
	// blocked where the good circuit's was not), and at the forced node.
	w.diffEpoch++
	lo = len(w.ops)
	w.diffNodes(fs, res.Explored)
	w.diffChanges(fs, goodChanged)
	if nodeFault {
		w.diffNode(fs, fs.f.Node)
	}
	hi = len(w.ops)

	// Revert the scratch to the prev mirror: restore exactly the touched
	// nodes (overlay set, changed inputs, settle changes), refresh the
	// transistors they gate, and lift the fault pin. The pooled bitmap is
	// cleared in the same pass (recVal needs no clearing: it is
	// meaningful only under set bits).
	for _, n := range res.Changed {
		w.noteUndo(n)
	}
	if nodeFault {
		w.scratch.DropForce(fs.f.Node)
	}
	for _, n := range w.undo {
		pv := b.prev.Value(n)
		if w.scratch.Value(n) != pv {
			w.scratch.OverrideValue(n, pv)
			w.scratch.RefreshGates(n)
		}
	}
	if !nodeFault {
		w.scratch.DropPin(fs.f.Trans)
	}
	for _, n := range fs.recs.nodes {
		w.recBits[uint(n)>>6] &^= 1 << (uint(n) & 63)
	}
	return lo, hi, res.Oscillated
}

// insertFault records the immediate divergence a fault forces before any
// settling: a forced node whose pinned value differs from the good
// circuit's reset value. Transistor pins change no node values by
// themselves, so they create no insertion records. prev equals the good
// reset state when this runs, and the record store is empty, so the
// pooled bitmap is correctly all-zero.
func (w *faultWorker) insertFault(ci CircuitID) (lo, hi int) {
	b := w.batch
	fs := b.faults[ci-1]
	w.catchUp()
	if !fs.f.Kind.IsNodeFault() {
		return 0, 0
	}
	fs.f.Apply(w.scratch)
	w.diffEpoch++
	lo = len(w.ops)
	w.diffNode(fs, fs.f.Node)
	hi = len(w.ops)
	w.scratch.DropForce(fs.f.Node)
	w.scratch.OverrideValue(fs.f.Node, b.prev.Value(fs.f.Node))
	w.scratch.RefreshGates(fs.f.Node)
	return lo, hi
}

// applyOps merges one circuit's deferred record mutations into the shared
// stores. Called on the coordinating goroutine only, in ascending
// circuit-id order.
func (b *FaultBatch) applyOps(ci CircuitID, ops []recOp, osc bool) {
	fs := b.faults[ci-1]
	if osc {
		fs.oscillated = true
	}
	for _, op := range ops {
		if op.set {
			b.setRecord(op.n, ci, op.v)
		} else {
			b.clearRecord(op.n, ci)
		}
	}
}

// runActivated executes the scheduled active circuits — inline on
// workers[0] when the batch is small or the pool has size 1, sharded
// across the pool otherwise — and merges their diffs deterministically.
// Collapsed-class representatives have their per-circuit work delta
// measured and credited to their members (times the live member count),
// so work totals stay byte-identical to the untrimmed run.
//
// The replay index is built here, on demand: a setting that activates no
// circuit (a third of them on the RAM workloads) never pays for one. One
// shared index serves every activated lane: the trajectory indexing and
// static-flag closure a per-circuit replay would recompute is paid once for
// the whole word group. interestMask is exactly the per-lane static
// divergence rows, and the build still precedes every write-back of the
// setting — write-back only ever mutates a circuit's own lane bits, so the
// snapshot taken here matches what each circuit would have seeded at its
// own turn. The good wave is compiled in the same place, from prev (the
// pre-step state every lane is materialized from, which nothing writes
// until the step's applyDelta), for the lanes about to run; index and wave
// are read-only during the fan-out.
func (b *FaultBatch) runActivated(setting switchsim.Setting, extraSeeds []netlist.NodeID, traj *switchsim.Trajectory, goodChanged []switchsim.Change) {
	active := b.active
	if len(active) == 0 {
		return
	}
	if traj != nil {
		b.ix.Build(traj, b.words, b.interestMask, b.interestNZ)
		if !b.noCompile {
			b.ix.Compile(b.prev, setting, extraSeeds, b.activeMask())
		}
	}
	if len(b.workers) == 1 || len(active) < minParallelBatch {
		w := b.workers[0]
		w.ops = w.ops[:0]
		for _, ci := range active {
			fs := b.faults[ci-1]
			credit := 0
			var w0 switchsim.Work
			if b.anyCollapsed && len(fs.classMembers) > 0 {
				credit = b.liveCollapsedMembers(fs)
				w0 = w.solve.Work()
			}
			lo, hi, osc := w.stepFaulty(ci, setting, extraSeeds, traj, goodChanged)
			if credit > 0 {
				b.creditWork.Add(w.solve.Work().Sub(w0).Scaled(int64(credit)))
			}
			b.applyOps(ci, w.ops[lo:hi], osc)
			w.ops = w.ops[:lo]
		}
		return
	}

	if cap(b.results) < len(active) {
		b.results = make([]stepResult, len(active)*2)
	}
	results := b.results[:len(active)]
	nWorkers := len(b.workers)
	if nWorkers > len(active) {
		nWorkers = len(active)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wid := 0; wid < nWorkers; wid++ {
		w := b.workers[wid]
		w.ops = w.ops[:0]
		wg.Add(1)
		go func(wid int, w *faultWorker) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(active) {
					return
				}
				ci := active[i]
				measure := b.anyCollapsed && len(b.faults[ci-1].classMembers) > 0
				var w0 switchsim.Work
				if measure {
					w0 = w.solve.Work()
				}
				lo, hi, osc := w.stepFaulty(ci, setting, extraSeeds, traj, goodChanged)
				r := stepResult{wid: wid, lo: lo, hi: hi, osc: osc}
				if measure {
					r.work = w.solve.Work().Sub(w0)
				}
				results[i] = r
			}
		}(wid, w)
	}
	wg.Wait()
	// Deterministic write-back: ascending circuit-id order, regardless of
	// which worker computed what or when it finished.
	for i, ci := range active {
		r := results[i]
		if fs := b.faults[ci-1]; b.anyCollapsed && len(fs.classMembers) > 0 {
			if credit := b.liveCollapsedMembers(fs); credit > 0 {
				b.creditWork.Add(r.work.Scaled(int64(credit)))
			}
		}
		b.applyOps(ci, b.workers[r.wid].ops[r.lo:r.hi], r.osc)
	}
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

// applyDelta advances prev by one change list (changed inputs or the good
// settle's changed set, with post-step values) and appends it to the
// delta log the worker mirrors sync from lazily. Called at the end of
// each step, so the coordinator's cost is proportional to the step's
// activity alone — independent of the worker count, and replacing the
// former O(nodes + transistors) full copy per setting.
func (b *FaultBatch) applyDelta(chs []switchsim.Change) {
	for _, ch := range chs {
		b.prev.OverrideValue(ch.Node, ch.Value)
		b.prev.RefreshGates(ch.Node)
	}
	b.deltaLog = append(b.deltaLog, chs...)
}

// trimDeltaLog bounds the delta log. When every worker has caught up it
// is simply reset; otherwise, once the log outgrows the cost of a full
// state copy, laggard workers are synced wholesale from prev and the log
// reset — so a worker that sits out a long quiet stretch costs one
// amortized O(circuit) copy instead of an unbounded replay.
func (b *FaultBatch) trimDeltaLog() {
	maxLag := 0
	for _, w := range b.workers {
		if lag := len(b.deltaLog) - w.deltaPos; lag > maxLag {
			maxLag = lag
		}
	}
	if maxLag > 0 {
		if len(b.deltaLog) <= b.nw.NumNodes()+b.nw.NumTransistors() {
			return
		}
		for _, w := range b.workers {
			if w.deltaPos != len(b.deltaLog) {
				w.scratch.CopyStateFrom(b.prev)
			}
		}
	}
	b.deltaLog = b.deltaLog[:0]
	for _, w := range b.workers {
		w.deltaPos = 0
	}
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
// plus the work credited to collapsed class members (their
// representative's, fanned out — see trim.go). Each circuit's work is
// deterministic and the sum is order-independent, so the total is
// identical for every worker count (and every lane width: the per-lane
// replay examines only its own lane's divergence).
func (b *FaultBatch) faultWork() switchsim.Work {
	t := b.creditWork
	for _, w := range b.workers {
		t.Add(w.solve.Work())
	}
	return t
}
