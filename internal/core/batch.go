// FaultBatch: the faulty-circuit consumer half of the simulator.
//
// A batch owns an arbitrary slice of the fault universe and executes it
// against a stream of good-circuit step traces. It never runs the good
// solver itself: everything it needs per step — input deltas and the
// settle trajectory, whose change and member lists are the changed and
// explored sets — arrives in the trace, either borrowed live from a
// goodRunner (the monolithic Simulator) or replayed from a captured
// switchsim.Recording (the campaign engine). Per-fault
// memory is the sparse divergence store only; the dense per-node scratch
// the diff pass needs is pooled per worker, so a batch's footprint scales
// with its width (workers × nodes + records), never with the size of the
// whole fault universe.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"

	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// FaultBatch executes one slice of the fault universe against good-circuit
// step traces. Construct with NewFaultBatch; re-arm one that has run with
// Reset.
type FaultBatch struct {
	tab  *switchsim.Tables
	nw   *netlist.Network
	opts Options

	// good is the post-step good-circuit state the diff pass compares
	// against: the batch's own mirror, advanced from each trace's deltas
	// at the start of Step — live or replayed, the trace is all a batch
	// reads of the good circuit.
	good *switchsim.Circuit
	// prev holds the good circuit's pre-step state: faulty circuits are
	// materialized from it so their settling starts from their own
	// previous steady state. It is advanced by delta application at the
	// end of each step, never by full copies, and is read-only while
	// circuits run.
	prev *switchsim.Circuit

	// workers execute activated faulty circuits; each owns a scratch
	// circuit (overwritten from prev at the start of every lane-step) and
	// a private solver. There are never more than the batch has faults.
	// pool holds every worker the batch has made, across Resets; workers
	// is the prefix the current window uses.
	workers []*faultWorker
	pool    []*faultWorker

	// faults points into slab, the per-fault state of the window, one
	// entry per fault (see Reset).
	faults []*faultState
	slab   []faultState
	live   int // undropped circuits, maintained on drop (O(1) queries)

	// Lane packing: circuit ci occupies bit (ci-1)%64 of lane word
	// (ci-1)/64. words is the per-node row stride of the packed interest
	// rows below.
	words int

	// interestMask is the interest relation, the batch's only interest
	// index: word-packed per-node rows in which circuit ci's lane bit is set
	// in node n's row iff n is one of ci's sites or lies in the
	// neighborhood of one of its records (recordInterestNodes). The
	// scheduler ORs the touched nodes' rows, the per-setting ReplayIndex is
	// built from them as the static divergence rows, and, since a circuit
	// holding a record at n is interested in n, node n's row is also the
	// candidate set Observe scans there. interestNZ[n] counts the row's
	// nonzero words (the index build and the scheduler skip all-zero rows
	// with one load).
	interestMask []uint64
	interestNZ   []int32
	// wbRecs is the node bitmap of the records of the circuit being written
	// back, for clearRecord's re-derivation of interest bits (see applyOps);
	// all zero between circuits.
	wbRecs []uint64

	// ix is the per-setting trajectory index shared by every activated
	// lane (built from interestMask by the Steps that activate a circuit,
	// see runActivated; read-only during the parallel fan-out). noCompile
	// is a test hook: it leaves the good wave uncompiled, so every lane
	// walks every round — the reference the fast-forward is checked
	// against.
	ix        *switchsim.ReplayIndex
	noCompile bool

	// Scratch for per-setting scheduling.
	touchStamp []uint32
	touchEpoch uint32
	touched    []netlist.NodeID
	inputStamp []uint32
	inputEpoch uint32

	// Per-setting scheduling scratch: the word-wide activation
	// accumulator (candidates while scheduling, then the lane bits of the
	// circuits actually scheduled, see activeMask), the reused active list,
	// and one result slot per fault for the fan-out.
	activeWords []uint64
	active      []CircuitID
	results     []stepResult
	detBuf      []int

	// in is the current setting's lane-step inputs; laneStep is stepLane
	// bound once, the fan-out body (see runActivated).
	in       laneInputs
	laneStep func(wid, i int)

	// settingBuf is the reusable reduced setting rebuilt per step from
	// the trace's input changes; allNodes caches the storage-node list
	// the initialization step perturbs.
	settingBuf switchsim.Setting
	allNodes   []netlist.NodeID

	started    bool // the initialization trace has been consumed
	patternIdx int
	settingIdx int
	// detectedTotal counts the batch's detections so far, for
	// BatchProgress.DetectedTotal.
	detectedTotal int

	// lanesFreed is the number of faults collapsed onto a class
	// representative at construction (see trim.go); classOrder is
	// groupClasses' sort scratch.
	lanesFreed int
	classOrder []int32

	// reuseSetting and reusePattern are the row tables ReuseRows handed
	// over, for the next RunRecording to fill; Reset keeps them.
	reuseSetting []SettingStats
	reusePattern []BatchPattern
}

// lane returns circuit ci's lane coordinates in the packed rows.
func (b *FaultBatch) lane(ci CircuitID) (word int, bit uint) {
	fi := int(ci) - 1
	return fi >> 6, uint(fi & 63)
}

// NewFaultBatch builds a consumer over a shared Tables, at the reset state.
// The batch runs no good-circuit solver: it is driven by step traces, live
// from a Simulator's producer or recorded (RunRecording). The first trace
// it steps must be the initialization step, which is where the faults are
// inserted: every circuit is materialized with its fault applied to the
// reset state, so defects are present from power-on. It is Reset on an
// empty batch: a batch that has run is re-armed for the next fault window
// with Reset, not rebuilt.
func NewFaultBatch(tab *switchsim.Tables, faults []fault.Fault, opts Options) (*FaultBatch, error) {
	b := &FaultBatch{tab: tab, nw: tab.Net}
	b.laneStep = b.stepLane
	if err := b.Reset(faults, opts); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset re-arms the batch for a new fault window over the same Tables, at
// the reset state: afterwards it runs exactly as NewFaultBatch(tab, faults,
// opts) would — the same results, work, ReplayStats and TrimStats. What a
// batch sizes by the network, not by its window, is kept: both circuits,
// the interest rows, the replay index, the workers with their scratch
// circuits, solvers and diff scratch, and the per-fault slab with its
// record stores; each grows only when the window is wider than any before.
// Only what a fresh batch reads as zero is cleared — the interest rows at
// the new stride, the counters and the statistics. The stamp epochs keep
// counting, so no stamp of an earlier window reads as current. A campaign
// keeps one batch per shard slot and re-arms it for every batch the slot
// runs; a batch is never shared between goroutines. A Reset that fails
// leaves the batch as it was.
func (b *FaultBatch) Reset(faults []fault.Fault, opts Options) error {
	nw := b.nw
	if len(opts.Observe) == 0 {
		return fmt.Errorf("core: no observed outputs configured")
	}
	for _, o := range opts.Observe {
		if o < 0 || int(o) >= nw.NumNodes() {
			return fmt.Errorf("core: observed node %d out of range", o)
		}
	}
	n := nw.NumNodes()
	words := (len(faults) + 63) / 64
	old := *b
	*b = FaultBatch{
		tab:          old.tab,
		nw:           nw,
		opts:         opts,
		good:         old.good,
		prev:         old.prev,
		pool:         old.pool,
		faults:       old.faults[:0],
		words:        words,
		interestMask: zeroed(old.interestMask, n*words),
		interestNZ:   zeroed(old.interestNZ, n),
		wbRecs:       zeroed(old.wbRecs, (n+63)/64),
		ix:           old.ix,
		touchStamp:   old.touchStamp,
		touchEpoch:   old.touchEpoch,
		touched:      old.touched[:0],
		inputStamp:   old.inputStamp,
		inputEpoch:   old.inputEpoch,
		activeWords:  zeroed(old.activeWords, words),
		active:       old.active[:0],
		results:      zeroed(old.results, len(faults)),
		detBuf:       old.detBuf[:0],
		laneStep:     old.laneStep,
		settingBuf:   old.settingBuf[:0],
		allNodes:     old.allNodes,
		slab:         old.slab,
		classOrder:   old.classOrder,
		reuseSetting: old.reuseSetting,
		reusePattern: old.reusePattern,
	}
	if b.good == nil {
		b.good, b.prev = switchsim.NewCircuit(b.tab), switchsim.NewCircuit(b.tab)
		b.ix = switchsim.NewReplayIndex(b.tab)
		b.touchStamp, b.inputStamp = make([]uint32, n), make([]uint32, n)
	} else {
		b.good.Reset()
		b.prev.Reset()
		b.ix.ResetStats()
	}

	// A batch cannot use more workers than it has lanes, and each one holds
	// a scratch circuit, a solver and node-sized diff arrays: the pool is
	// capped at the fault count, whatever Workers asks for.
	nWorkers := opts.Workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	nWorkers = max(1, min(nWorkers, len(faults)))
	for len(b.pool) < nWorkers {
		b.pool = append(b.pool, newFaultWorker(b))
	}
	b.workers = b.pool[:nWorkers]
	for _, w := range b.workers {
		w.reset()
	}

	// The per-fault state lives in one slab; a slot keeps its site list's,
	// its record store's and its class member list's arrays.
	if cap(b.slab) < len(faults) {
		b.slab = make([]faultState, len(faults))
		b.faults = make([]*faultState, 0, len(faults))
	}
	b.slab = b.slab[:len(faults)]
	for i, f := range faults {
		fs := &b.slab[i]
		*fs = faultState{
			f: f, sites: siteSet(fs.sites, nw, f), repFi: -1,
			recs:         recStore{nodes: fs.recs.nodes[:0], vals: fs.recs.vals[:0]},
			classMembers: fs.classMembers[:0],
		}
		b.faults = append(b.faults, fs)
	}
	b.live = len(b.faults)
	b.groupClasses()

	// Register static interest before initialization. A class member has
	// none: its representative carries it.
	for fi, fs := range b.faults {
		if fs.repFi >= 0 {
			continue
		}
		for _, n := range fs.sites {
			b.setInterest(n, CircuitID(fi+1))
		}
	}
	return nil
}

// zeroed returns s resliced to n zero elements, reusing its array when it
// holds n.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// siteSet computes the static interest sites of a fault: the storage
// nodes where the faulty circuit's response can deviate from the good
// circuit's regardless of current divergence.
//
// For a fault on a storage node, the node itself suffices as the channel
// trigger: whenever the good circuit's activity reaches the node's
// electrical neighborhood, the node is inside the explored vicinity (a
// vicinity contains every storage node reachable through conducting
// transistors, and a non-conducting transistor isolates the node in both
// circuits identically). A fault on an *input* node is different: input
// nodes are never members of vicinities, so the fault's conducting
// neighborhood must be registered explicitly — this is what makes a
// frozen clock line expensive (its interest spans every clocked element,
// the paper's head-phase behavior) while a stuck memory bit stays cheap.
//
// The sites are appended to dst[:0], so a slab slot that keeps its array
// across windows rebuilds them without allocating.
func siteSet(dst []netlist.NodeID, nw *netlist.Network, f fault.Fault) []netlist.NodeID {
	sites := f.AppendSites(dst[:0], nw)
	if f.Kind.IsNodeFault() && nw.Node(f.Node).Kind == netlist.Input {
		for _, t := range nw.Channel(f.Node) {
			if o := nw.Transistor(t).Other(f.Node); nw.Node(o).Kind != netlist.Input {
				sites = append(sites, o)
			}
		}
		slices.Sort(sites)
		sites = slices.Compact(sites)
	}
	return sites
}

// NumFaults returns the number of faults in the batch.
func (b *FaultBatch) NumFaults() int { return len(b.faults) }

// Fault returns the fault at batch index fi.
func (b *FaultBatch) Fault(fi int) fault.Fault { return b.faults[fi].f }

// Detected reports whether fault fi has been detected, with details.
func (b *FaultBatch) Detected(fi int) (Detection, bool) {
	return b.faults[fi].det, b.faults[fi].detected
}

// Oscillated reports whether fault fi's circuit ever hit the round limit.
func (b *FaultBatch) Oscillated(fi int) bool { return b.resolveFault(fi).oscillated }

// Live returns the number of undropped circuits, O(1).
func (b *FaultBatch) Live() int { return b.live }

// Records returns a copy of the divergence records of fault fi (a
// collapsed class member reads its representative's).
func (b *FaultBatch) Records(fi int) map[netlist.NodeID]logic.Value {
	recs := &b.resolveFault(fi).recs
	out := make(map[netlist.NodeID]logic.Value, recs.size())
	for i, n := range recs.nodes {
		out[n] = recs.vals[i]
	}
	return out
}

// BeginPattern resets the per-pattern setting counter; EndPattern advances
// the pattern counter. Drivers bracket each pattern's settings with them
// so Detection coordinates match across drivers.
func (b *FaultBatch) BeginPattern() { b.settingIdx = 0 }

// EndPattern advances to the next pattern.
func (b *FaultBatch) EndPattern() { b.patternIdx++ }

// touch stamps node n into the touched region of the current setting.
func (b *FaultBatch) touch(n netlist.NodeID) {
	if b.touchStamp[n] != b.touchEpoch {
		b.touchStamp[n] = b.touchEpoch
		b.touched = append(b.touched, n)
	}
}

// Step executes one good-circuit step trace against every live circuit in
// the batch: scheduling from the trace's activity, simulating each
// activated circuit (adopting from the trajectory where provably
// identical), diffing into divergence records, and finally advancing prev
// to the post-step state. Returns the setting's fault-side statistics.
func (b *FaultBatch) Step(trace *switchsim.StepTrace) SettingStats {
	w0 := b.faultWork()

	// Advance the good mirror to the post-step state before anything reads
	// it (scheduling, inertness checks, the diff): every good write, in order.
	_, changes := trace.Traj.Lists()
	b.applyToCircuit(b.good, trace.InputChanges)
	b.applyToCircuit(b.good, changes)

	traj := trace.Traj
	if trace.Oscillated {
		// X-resolution makes the trajectory unreliable as an oracle; fall
		// back to full replays this step.
		traj = nil
	}
	var nActive int
	if trace.Init {
		// Power-on initialization, and fault insertion with it: every
		// circuit is materialized from the reset state with its fault
		// applied, settles from there, and diffs the forced node with the
		// rest — the concurrent counterpart of the serial reference's
		// reset + inject + settle-all.
		b.started = true
		b.active = b.active[:0]
		for fi, fs := range b.faults {
			if fs.repFi < 0 {
				b.active = append(b.active, CircuitID(fi+1))
			}
		}
		b.runActivated(laneInputs{extraSeeds: b.allStorageNodes(), traj: traj, goodChanged: changes})
		nActive = b.activeWithMembers()
	} else {
		b.markTouched(trace)
		nActive = b.simulateActivated(b.reducedSetting(trace.InputChanges), traj, changes)
	}

	// Advance prev to the post-step state the next step's circuits
	// materialize from: cost proportional to the step's activity.
	b.applyToCircuit(b.prev, trace.InputChanges)
	b.applyToCircuit(b.prev, changes)

	dw := b.faultWork().Sub(w0)
	st := SettingStats{
		ActiveCircuits: nActive,
		FaultWork:      dw.Units(),
		AdoptedVics:    dw.AdoptedVics,
		SolvedVics:     dw.Vicinities,
	}
	if traj != nil {
		st.LanesReplayed = nActive
	} else {
		st.ScalarFallbacks = nActive
	}
	if !trace.Init {
		b.settingIdx++
	}
	return st
}

// skipStep emits the SettingStats a full Step would produce when every
// circuit in the batch is dropped — the zero row: nothing activates and
// nothing is solved — and advances the setting counter, without
// scheduling or advancing good and prev (nothing reads them once the
// batch is empty: a dropped circuit holds no records, and a Simulator
// reads its own good circuit). Used by runPattern to shed the dead tail
// of a fully-retired batch.
func (b *FaultBatch) skipStep() SettingStats {
	b.settingIdx++
	return SettingStats{}
}

// markTouched recomputes the step's touched region from the trace: the
// conservative trigger neighborhood of the input changes — storage nodes
// adjacent to a changing input through ANY transistor (a faulty circuit
// may conduct where the good circuit does not), plus the channel terminals
// of transistors the input gates — and everything the good settle
// explored: the trajectory's members (touch skips repeats).
func (b *FaultBatch) markTouched(trace *switchsim.StepTrace) {
	b.touchEpoch++
	b.touched = b.touched[:0]
	b.inputEpoch++
	for _, ch := range trace.InputChanges {
		b.inputStamp[ch.Node] = b.inputEpoch
		for _, e := range b.tab.ChannelOf(ch.Node) {
			if !b.tab.IsInput(e.Other) {
				b.touch(e.Other)
			}
		}
		for _, e := range b.tab.GatedByOf(ch.Node) {
			if !b.tab.IsInput(e.Src) {
				b.touch(e.Src)
			}
			if !b.tab.IsInput(e.Drn) {
				b.touch(e.Drn)
			}
		}
	}
	members, _ := trace.Traj.Lists()
	for _, n := range members {
		b.touch(n)
	}
}

// reducedSetting rebuilds a Setting from the trace's input changes.
// Assignments that matched the previous value are gone, but they perturb
// no circuit: an unchanged input is a no-op in the faulty circuits too
// (and a fault-forced input ignores its driver either way), so the
// reduction is exact.
func (b *FaultBatch) reducedSetting(inputs []switchsim.Change) switchsim.Setting {
	b.settingBuf = b.settingBuf[:0]
	for _, ch := range inputs {
		b.settingBuf = append(b.settingBuf, switchsim.Assignment{Node: ch.Node, Value: ch.Value})
	}
	return b.settingBuf
}

// allStorageNodes returns (caching) the storage-node list the
// initialization step perturbs.
func (b *FaultBatch) allStorageNodes() []netlist.NodeID {
	if b.allNodes == nil {
		for i := 0; i < b.nw.NumNodes(); i++ {
			n := netlist.NodeID(i)
			if b.nw.Node(n).Kind != netlist.Input {
				b.allNodes = append(b.allNodes, n)
			}
		}
	}
	return b.allNodes
}

// applyToCircuit writes a change list into one circuit, refreshing the
// transistors each changed node gates.
func (b *FaultBatch) applyToCircuit(c *switchsim.Circuit, chs []switchsim.Change) {
	for _, ch := range chs {
		c.OverrideValue(ch.Node, ch.Value)
		c.RefreshGates(ch.Node)
	}
}

// simulateActivated schedules every live circuit whose interest set
// intersects the touched region and re-simulates each: against the good
// trajectory when one is available (adopting identical regions, solving
// divergent ones — see switchsim.SettleReplayIndexed), or by the same
// loop with no index, solving every vicinity, otherwise. Returns the
// number of activated circuits.
//
// Scheduling is word-wide: the touched nodes' interest-mask rows OR into
// one lane accumulator (64 circuits per operation), and the set bits are
// the candidate circuits — deduplicated and in ascending id order for
// free, replacing the per-entry stamp scan and sort of the unpacked
// design.
func (b *FaultBatch) simulateActivated(setting switchsim.Setting, traj *switchsim.Trajectory, goodChanged []switchsim.Change) int {
	aw := b.activeWords
	for w := range aw {
		aw[w] = 0
	}
	for _, n := range b.touched {
		if b.interestNZ[n] == 0 {
			continue
		}
		row := b.interestMask[int(n)*b.words:]
		for w := range aw {
			aw[w] |= row[w]
		}
	}
	b.active = b.active[:0]
	for w, m := range aw {
		for m != 0 {
			fi := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			if fs := b.faults[fi]; !fs.dropped && !b.faultInert(fs) {
				b.active = append(b.active, CircuitID(fi+1))
			}
		}
	}
	b.runActivated(laneInputs{setting: setting, traj: traj, goodChanged: goodChanged})
	return b.activeWithMembers()
}

// faultInert reports whether a divergence-free circuit provably cannot
// deviate from the good circuit this step, so its activation may be
// skipped. A transistor fault is inert when the good transistor's state
// equals the pinned state and its gate was untouched the whole step (the
// two circuits had identical switch states throughout); a node fault is
// inert when the good node holds the forced value and was untouched (same
// value, and no vicinity involving the node was computed). This filter is
// what keeps a latent stuck memory bit from being re-simulated every time
// its (isolated) write bit line swings — the locality the paper's tail
// phase depends on.
func (b *FaultBatch) faultInert(fs *faultState) bool {
	if fs.recs.size() > 0 {
		return false
	}
	if pin, ok := fs.f.PinnedState(); ok {
		t := fs.f.Trans
		gate := b.nw.Transistor(t).Gate
		return !b.wasTouched(gate) && b.good.TransState(t) == pin
	}
	forced, _ := fs.f.ForcedState()
	return !b.wasTouched(fs.f.Node) && b.good.Value(fs.f.Node) == forced
}

// wasTouched reports whether node n was touched this step: explored by
// the good settle, in the input-change neighborhood, or (for inputs) the
// changed input itself.
func (b *FaultBatch) wasTouched(n netlist.NodeID) bool {
	if b.nw.Node(n).Kind == netlist.Input {
		return b.inputStamp[n] == b.inputEpoch
	}
	return b.touchStamp[n] == b.touchEpoch
}

// Observe compares every observed output of every circuit holding a
// divergence record there against the good circuit, recording detections
// and dropping circuits per the policy. Only circuits that actually
// diverge at an output are examined — the paper's reason for keeping
// per-node state lists. A circuit holding a record at o is interested in
// o, so o's interest row is a word-packed superset of the record holders:
// its set bits are the candidates, and a candidate with no record at o
// (interested through a site or a gated neighbour) is skipped. A record
// never equals the good value (CheckInvariants), so every record found is
// a difference. Returns the batch indices of the faults first detected by
// this observation.
func (b *FaultBatch) Observe() []int {
	detectedNow := b.detBuf[:0]
	for _, o := range b.opts.Observe {
		if b.interestNZ[o] == 0 {
			continue
		}
		row := b.interestMask[int(o)*b.words : (int(o)+1)*b.words]
		gv := b.good.Value(o)
		outStart := len(detectedNow)
		for w := range row {
			// The word snapshot is the iteration's working set: a drop
			// clears only the dropped circuit's own bits in the shared row.
			// A dropped circuit has left every row and holds no records,
			// so the fs.dropped re-check fires only on a batch whose
			// interest index is already inconsistent.
			m := row[w]
			for m != 0 {
				fi := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				fs := b.faults[fi]
				if fs.dropped {
					continue
				}
				fv, ok := fs.recs.get(o)
				if !ok {
					continue
				}
				hard := gv.Definite() && fv.Definite()
				// Under DropHardOnly, an X-vs-definite difference is only a
				// potential detection and does not count; otherwise any
				// difference detects, per the paper.
				counts := hard || b.opts.Drop != DropHardOnly
				if counts && !fs.detected {
					fs.det = Detection{
						Pattern: b.patternIdx, Setting: b.settingIdx - 1,
						Output: o, Good: gv, Faulty: fv, Hard: hard,
					}
					fs.detected = true
					detectedNow = append(detectedNow, fi)
					// Fan the detection out to the class members: untrimmed
					// their records would equal the representative's, so
					// they would have been detected at this same output
					// with the same values.
					for _, mfi := range fs.classMembers {
						cm := b.faults[mfi]
						cm.det, cm.detected = fs.det, true
						detectedNow = append(detectedNow, mfi)
					}
				}
				drop := false
				switch b.opts.Drop {
				case DropAnyDifference:
					drop = true
				case DropHardOnly:
					drop = hard
				case NeverDrop:
				}
				if drop {
					b.dropCircuit(CircuitID(fi + 1))
				}
			}
		}
		if b.lanesFreed > 0 {
			// The untrimmed scan reports each output's detections in
			// ascending fault order (words ascending, bits ascending);
			// fanned-out members were appended next to their
			// representative, so restore that order.
			sort.Ints(detectedNow[outStart:])
		}
	}
	b.detBuf = detectedNow
	return detectedNow
}

// runPattern steps the batch through pattern p, the one pattern loop of
// both drivers: next(i) yields setting i's good-circuit step trace, live
// from a Simulator's goodRunner or replayed from a Recording. It polls
// ctx between settings, observes at the pattern's observe points, reports
// every setting to Options.OnObserve, and hands each setting's row to
// row. Once every circuit is dropped the fault side is skipped
// (skipStep): the full step would schedule nothing and observe nothing,
// so only executed work shrinks. next is still called, so a live good
// circuit keeps stepping. Returns the pattern's row; a cancelled ctx
// returns its error.
func (b *FaultBatch) runPattern(ctx context.Context, p *switchsim.Pattern, next func(i int) *switchsim.StepTrace, row func(SettingStats)) (BatchPattern, error) {
	b.BeginPattern()
	bp := BatchPattern{LiveBefore: b.live}
	for i := range p.Settings {
		if err := ctx.Err(); err != nil {
			return bp, fmt.Errorf("core: batch replay cancelled at pattern %d setting %d: %w", b.patternIdx, i, err)
		}
		trace := next(i)
		var st SettingStats
		var det []int
		if b.live == 0 {
			st = b.skipStep()
		} else {
			st = b.Step(trace)
			if p.ObserveAt(i) {
				det = b.Observe()
			}
		}
		row(st)
		bp.Detected += len(det)
		b.detectedTotal += len(det)
		if b.opts.OnObserve != nil {
			b.opts.OnObserve(BatchProgress{
				Pattern: b.patternIdx, Setting: i,
				LiveFaults:    b.live,
				Detected:      det,
				DetectedTotal: b.detectedTotal,
			})
		}
	}
	bp.LiveAfter = b.live
	b.EndPattern()
	return bp, nil
}

// BatchResult is the outcome of replaying one fault batch over a recorded
// good trajectory. Every field is deterministic: bit-identical for every
// batching and worker count, from run to run. It has one serialised form,
// the column codec of resultcodec.go, which is also what it marshals to
// inside JSON (shard result lines, campaign checkpoints).
type BatchResult struct {
	// NumFaults is the batch width.
	NumFaults int
	// PerSetting carries the fault-side stats of every input setting in
	// sequence order. Campaigns merge these at setting granularity so
	// aggregates like MaxActive stay exact.
	PerSetting []SettingStats
	// PerPattern carries, per pattern of the sequence, the live and
	// detected counts the per-setting rows cannot give.
	PerPattern []BatchPattern
	// Detected, Detections and Oscillated are indexed by batch fault
	// index.
	Detected   []bool
	Detections []Detection
	Oscillated []bool
	// Records holds each fault's final divergence records (nil when
	// empty): the faulty circuit's state wherever it still differs from
	// the good circuit at the end of the sequence.
	Records []map[netlist.NodeID]logic.Value
}

// DetectedCount returns the number of detected faults in the batch.
func (br *BatchResult) DetectedCount() int {
	n := 0
	for _, d := range br.Detected {
		if d {
			n++
		}
	}
	return n
}

// ReuseRows hands the batch the row tables of a result it no longer
// needs: the next RunRecording fills their arrays with its per-setting
// and per-pattern rows instead of allocating new ones, and the result it
// returns owns them. A table too short for the sequence is dropped and a
// new one allocated. The caller must not touch the tables afterwards;
// nothing else about the replay changes. A campaign slot hands its batch
// the tables of the result it ran before, once the ledger has folded
// and logged it, so the slot fills one table for every batch it runs.
func (b *FaultBatch) ReuseRows(perSetting []SettingStats, perPattern []BatchPattern) {
	b.reuseSetting, b.reusePattern = perSetting, perPattern
}

// RunRecording replays a captured good trajectory against the batch: the
// initialization step first, then every pattern of seq with observations
// at its observe points. The batch must be fresh from NewFaultBatch or
// Reset: a batch that has run replays again only once Reset re-arms it.
// The recording must have been captured over the same network and
// sequence. The result's row tables are the ones ReuseRows handed over,
// when it did and they are long enough, and new ones otherwise.
//
// Cancellation is cooperative at setting granularity: ctx is checked
// between settings (each a few microseconds to milliseconds of work), and
// a cancelled replay returns ctx's error with no partial result. A nil
// ctx behaves like context.Background().
func (b *FaultBatch) RunRecording(ctx context.Context, rec *switchsim.Recording, seq *switchsim.Sequence) (*BatchResult, error) {
	if b.started {
		return nil, fmt.Errorf("core: batch already ran; Reset it before another replay")
	}
	if err := rec.Validate(b.nw, seq.NumSettings()); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Every length is known up front: the stats tables of a long sequence
	// are the bulk of what a batch allocates, and growing them by doubling
	// allocated them twice over.
	br := &BatchResult{
		NumFaults:  len(b.faults),
		PerSetting: emptyRows(b.reuseSetting, seq.NumSettings()),
		PerPattern: emptyRows(b.reusePattern, len(seq.Patterns)),
		Detected:   make([]bool, 0, len(b.faults)),
		Detections: make([]Detection, 0, len(b.faults)),
		Oscillated: make([]bool, 0, len(b.faults)),
		Records:    make([]map[netlist.NodeID]logic.Value, 0, len(b.faults)),
	}
	b.reuseSetting, b.reusePattern = nil, nil // the result owns them now
	b.Step(&rec.Steps[0])
	// PerSetting holds one entry per setting stepped so far.
	next := func(int) *switchsim.StepTrace { return &rec.Steps[1+len(br.PerSetting)] }
	row := func(st SettingStats) { br.PerSetting = append(br.PerSetting, st) }
	for pi := range seq.Patterns {
		bp, err := b.runPattern(ctx, &seq.Patterns[pi], next, row)
		if err != nil {
			return nil, err
		}
		br.PerPattern = append(br.PerPattern, bp)
	}

	for fi, fs := range b.faults {
		// Class members read their representative's outcomes: detection
		// state is already fanned out at observation time, and oscillation
		// flags and final records live only on the representative's lane.
		src := b.resolveFault(fi)
		br.Detected = append(br.Detected, fs.detected)
		br.Detections = append(br.Detections, fs.det)
		br.Oscillated = append(br.Oscillated, src.oscillated)
		var recs map[netlist.NodeID]logic.Value
		if src.recs.size() > 0 {
			recs = b.Records(fi)
		}
		br.Records = append(br.Records, recs)
	}
	return br, nil
}

// emptyRows returns rows cut to length 0 when it can hold n rows, else a
// new table of capacity n. Every row is appended whole, so a reused
// array's old rows need no clearing.
func emptyRows[T any](rows []T, n int) []T {
	if cap(rows) < n {
		return make([]T, 0, n)
	}
	return rows[:0]
}

// RunBatch builds a fresh batch over one slice of the fault universe and
// runs it against a recorded good trajectory: the campaign engine's unit
// of work, and the reference a re-armed batch (Reset) is checked against.
// Batches over the same Tables are independent and safe to run
// concurrently. Cancelling ctx stops the replay between settings (see
// RunRecording); a nil ctx never cancels.
func RunBatch(ctx context.Context, tab *switchsim.Tables, faults []fault.Fault, rec *switchsim.Recording, seq *switchsim.Sequence, opts Options) (*BatchResult, error) {
	b, err := NewFaultBatch(tab, faults, opts)
	if err != nil {
		return nil, err
	}
	return b.RunRecording(ctx, rec, seq)
}
