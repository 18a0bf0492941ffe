package switchsim

import (
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// Solver computes steady-state responses over a network. It owns reusable
// per-node scratch storage, so one Solver serves any number of Circuits
// over the same network (one at a time). A Solver is not safe for
// concurrent use by multiple goroutines.
type Solver struct {
	tab *Tables

	// MaxRounds bounds the unit-delay settling loop before oscillation
	// handling kicks in. Zero selects a default based on network size.
	MaxRounds int

	// Record enables trajectory recording during Settle: the per-round
	// vicinity/change history lands in Traj. Used by the concurrent
	// simulator's good-circuit settles.
	Record bool
	// Traj is the last recorded trajectory (valid when Record is set;
	// overwritten by each Settle).
	Traj Trajectory

	// Round-scoped vicinity stamps: stamp[n] == epoch marks n a member of
	// a vicinity solved this round, and loc[n] is then its index in kn.
	stamp []uint32
	epoch uint32
	loc   []int32

	// Vicinity kernel storage (see exploreVicinity). kn holds one entry
	// per node solved this round, the current vicinity's members last
	// (kn[vicBase:]); edges holds the current vicinity's member-to-member
	// channel edges; rq is the relaxation worklist of kn indices.
	kn      []vicNode
	vicBase int
	edges   []vicEdge
	rq      []int32

	// Per-settle explored/changed stamps.
	exploredStamp []uint32
	exploredEpoch uint32
	explored      []netlist.NodeID
	changedStamp  []uint32
	changedEpoch  uint32
	changed       []netlist.NodeID

	// Round-local pending set (dedup stamp).
	pendStamp []uint32
	pendEpoch uint32

	// Per-replay dynamic-divergence stamps: nodes the replay has solved
	// and channel terminals of transistors they gate (see
	// SettleReplayIndexed). dynGen counts distinct marks, letting the
	// replay prove "no divergence added since" without rescanning. dynList
	// keeps the marked nodes in mark order; the replay rescans it against
	// each round's member→vicinity map (cost ∝ divergence, not trajectory
	// size).
	dynStamp []uint32
	dynEpoch uint32
	dynGen   uint64
	dynList  []netlist.NodeID

	// Indexed-replay round context (SettleReplayIndexed): the current
	// round's member→vicinity map from the prebuilt ReplayIndex (entries
	// valid under rvEpoch, see ReplayIndex.vicMap) and the per-vicinity
	// flagged/serviced state. While rvState is non-nil, exploreVicinity
	// treats members of serviced (adopted) vicinities as outside the
	// exploration frontier: the good circuit kept them in a separate
	// vicinity this round, and any divergence that would bridge into them
	// is marked and re-solved next round.
	rvMap   []uint64
	rvEpoch uint32
	rvState []uint32
	// vicState backs rvState. An entry is the round's tag (rvTag, a
	// multiple of vicTagStep, new every replay round) plus the flag bits;
	// one carrying any other tag is stale and reads as "not probed yet",
	// so nothing is cleared between rounds.
	vicState []uint32
	rvTag    uint32

	vic   []netlist.NodeID // current vicinity member list
	queue []netlist.NodeID // exploration stack

	// Reusable settle-loop storage: the current and next rounds' pending
	// seeds, the per-vicinity new-value buffer, and the ApplySetting seed
	// buffer. All are valid only during/until the next Settle-family call.
	pend, next []netlist.NodeID
	newVal     []logic.Value
	seedBuf    []netlist.NodeID

	work   Work
	replay ReplayStats

	// onSolve, when non-nil, observes every vicinity solve as solveVicinity
	// returns. The tests hang the kernel oracle on it. onRound observes the
	// start of every round an indexed replay walks (s.pend is the round's
	// queue); the fast-forward tests check the compiled wave against it.
	onSolve func(c *Circuit, newVal []logic.Value)
	onRound func(round int)
	// hardCap, when positive, replaces the round cap derived from the
	// network's size, so the tests can reach the hard-cap branch.
	hardCap int
}

// vicNode is the kernel's view of one node solved this round: what the
// exploration gathered about it, and its relaxation state. The state stays
// readable until the round ends, because a later vicinity of the round can
// reach the node again (see solveVicinity on ghosts).
type vicNode struct {
	node netlist.NodeID

	// edges[edgeLo:edgeHi] are the conducting channel edges to nodes
	// solved this round, valid for the vicinity whose base is gathered.
	edgeLo, edgeHi int32
	gathered       int32

	charge logic.Strength // κ, the node's own charge strength

	// Source summaries: the strongest signal each relaxation quantity can
	// receive from the adjacent input-like nodes, already attenuated by
	// the connecting transistor. Inputs do not change during a solve, so
	// one maximum per quantity stands for every source edge.
	sdef, shd, sld, shp, slp logic.Strength

	// Relaxation state: strongest definitely-present signal, strongest
	// definite high/low, strongest possible high/low.
	def, hd, ld, hp, lp logic.Strength

	val    logic.Value // the node's value when gathered
	queued bool        // on the worklist
}

// vicEdge is one conducting (state 1 or X) channel edge between two nodes
// solved this round. to is the far node's id as gathered, and its kn index
// once solveVicinity has resolved it.
type vicEdge struct {
	to    int32
	drive logic.Strength
	hi    bool // state 1: definite signals cross it too
}

// NewSolver returns a solver for circuits over tab's network.
func NewSolver(tab *Tables) *Solver {
	n := tab.Net.NumNodes()
	return &Solver{
		tab:           tab,
		stamp:         make([]uint32, n),
		loc:           make([]int32, n),
		exploredStamp: make([]uint32, n),
		changedStamp:  make([]uint32, n),
		pendStamp:     make([]uint32, n),
		dynStamp:      make([]uint32, n),
	}
}

// markDyn stamps a node into the current replay's divergence set.
func (s *Solver) markDyn(n netlist.NodeID) {
	if s.dynStamp[n] != s.dynEpoch {
		s.dynStamp[n] = s.dynEpoch
		s.dynGen++
		s.dynList = append(s.dynList, n)
	}
}

// Work returns the accumulated work counters.
func (s *Solver) Work() Work { return s.work }

// ReplayStats returns what this solver's indexed replays did since it was
// made or last ResetWork. Unlike Work it is no part of any result: it
// describes how the replay got there, not what it computed.
func (s *Solver) ReplayStats() ReplayStats { return s.replay }

// ResetWork zeroes the work counters and the replay statistics.
func (s *Solver) ResetWork() { s.work, s.replay = Work{}, ReplayStats{} }

// beginRound opens a unit-delay round: fresh vicinity stamps, and no node
// solved yet.
func (s *Solver) beginRound() {
	s.epoch++
	s.kn = s.kn[:0]
}

// pushNode extends kn by one entry and returns it. A recycled entry keeps
// its old relaxation state, which every solve overwrites before reading,
// and is off the worklist (queued false) like every entry between solves;
// the caller sets the rest.
func (s *Solver) pushNode() *vicNode {
	n := len(s.kn)
	if n == cap(s.kn) {
		grown := make([]vicNode, n, max(2*n, 32))
		copy(grown, s.kn)
		s.kn = grown
	}
	s.kn = s.kn[:n+1]
	return &s.kn[n]
}

// addSource folds one conducting edge to an input-like node — transistor
// state st and drive γ, the node's strength ω and value v — into the
// source summaries.
func (k *vicNode) addSource(st logic.Value, drive, w logic.Strength, v logic.Value) {
	a := logic.Attenuate(w, drive)
	hi := st == logic.Hi
	if hi && a > k.sdef {
		k.sdef = a
	}
	if v != logic.Lo && a > k.shp {
		k.shp = a
	}
	if v != logic.Hi && a > k.slp {
		k.slp = a
	}
	if hi {
		if v == logic.Hi && a > k.shd {
			k.shd = a
		}
		if v == logic.Lo && a > k.sld {
			k.sld = a
		}
	}
}

// exploreVicinity collects into s.vic the set of storage nodes connected
// to seed by paths of conducting transistors that do not pass through
// input-like nodes. Returns false if seed is input-like or already
// explored this round.
//
// The walk visits every channel edge of every member exactly once, and
// that one visit also gathers what the relaxation will read: each member
// gets a vicNode at the tail of s.kn carrying its charge, value and source
// summaries, and its conducting edges to other storage nodes solved this
// round go to s.edges. solveVicinity never looks at the channel tables.
func (s *Solver) exploreVicinity(c *Circuit, seed netlist.NodeID) bool {
	if c.IsInputLike(seed) || s.stamp[seed] == s.epoch {
		return false
	}
	if s.rvState != nil && s.servicedThisRound(seed) {
		return false
	}
	s.vic = s.vic[:0]
	s.queue = s.queue[:0]
	s.vicBase = len(s.kn)
	edges := s.edges[:0]
	s.stamp[seed] = s.epoch
	s.queue = append(s.queue, seed)
	for len(s.queue) > 0 {
		u := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.vic = append(s.vic, u)
		k := s.pushNode()
		s.loc[u] = int32(len(s.kn) - 1)
		k.node, k.charge, k.val = u, s.tab.Charge[u], c.val[u]
		k.edgeLo, k.gathered = int32(len(edges)), int32(s.vicBase)
		k.sdef, k.shd, k.sld, k.shp, k.slp = 0, 0, 0, 0, 0
		for _, e := range s.tab.ChannelOf(u) {
			st := c.ts[e.T]
			if st == logic.Lo {
				continue // the source and drain of an open transistor are electrically isolated
			}
			v := e.Other
			if c.IsInputLike(v) {
				// Vicinities do not extend through input nodes: one
				// behind a conducting transistor is a signal source.
				k.addSource(st, e.Drive, s.tab.Charge[v], c.val[v])
				continue
			}
			if s.stamp[v] != s.epoch {
				if s.rvState != nil && s.servicedThisRound(v) {
					continue // adopted as part of a good-trajectory vicinity
				}
				s.stamp[v] = s.epoch
				s.queue = append(s.queue, v)
			}
			edges = append(edges, vicEdge{to: int32(v), drive: e.Drive, hi: st == logic.Hi})
		}
		k.edgeHi = int32(len(edges))
	}
	s.edges = edges
	return true
}

// gatherGhost gathers, for the current vicinity, the sources and edges of
// kn[j], a node solved earlier this round (see solveVicinity).
func (s *Solver) gatherGhost(c *Circuit, j int32) {
	k := &s.kn[j]
	k.gathered = int32(s.vicBase)
	k.sdef, k.shd, k.sld, k.shp, k.slp = 0, 0, 0, 0, 0
	k.edgeLo = int32(len(s.edges))
	for _, e := range s.tab.ChannelOf(k.node) {
		st := c.ts[e.T]
		if st == logic.Lo {
			continue
		}
		if v := e.Other; c.IsInputLike(v) {
			k.addSource(st, e.Drive, s.tab.Charge[v], c.val[v])
		} else if s.stamp[v] == s.epoch {
			s.edges = append(s.edges, vicEdge{to: int32(v), drive: e.Drive, hi: st == logic.Hi})
		}
	}
	k.edgeHi = int32(len(s.edges))
}

// servicedThisRound reports whether n belongs to a trajectory vicinity of
// the current indexed-replay round that has already been adopted. Valid
// only while rvState is set (inside SettleReplayIndexed rounds).
func (s *Solver) servicedThisRound(n netlist.NodeID) bool {
	m := s.rvMap[n]
	if uint32(m>>32) != s.rvEpoch {
		return false
	}
	st := s.rvState[uint32(m)>>1]
	return st&^(vicTagStep-1) == s.rvTag && st&vicServiced != 0
}

// nextVicTag opens a replay round's per-vicinity state: every entry of
// vicState written under an earlier tag becomes stale. When the tag wraps
// the array is cleared, so an entry a billion rounds old cannot pass for a
// fresh one.
func (s *Solver) nextVicTag() {
	s.rvTag += vicTagStep
	if s.rvTag == 0 {
		clear(s.vicState)
		s.rvTag = vicTagStep
	}
}

// solveVicinity computes the steady-state response of the vicinity
// exploreVicinity just collected (s.vic, gathered in s.kn[s.vicBase:] and
// s.edges) and writes the new node values into newVal (parallel to s.vic).
// The relaxation computes, per node:
//
//	def — strength of the strongest definitely-present signal: roots are
//	      the node's own charge and adjacent input-like nodes (ω), flowing
//	      through transistors in state 1 only.
//	Hd/Ld — strongest definite high/low: roots whose value is exactly 1/0,
//	      via state-1 transistors, unblocked (≥ def at every node).
//	Hp/Lp — strongest possible high/low: roots with value in {1,X}/{0,X},
//	      via transistors in state 1 or X, unblocked.
//
// New value: 1 if Hd > Lp, 0 if Ld > Hp, else X. A signal of strength s
// crossing a transistor of strength γ continues at min(s, γ).
//
// Ghosts. The vicinity stamps last a whole round, and the relaxation has
// always taken any stamped channel neighbour for a member. A neighbour
// stamped by an EARLIER vicinity of the round can only be reached if a
// transistor between the two closed after that vicinity was explored (a
// gate it changed, propagated eagerly). Such a ghost is read with the
// relaxation state its own solve left behind, is requeued and relaxed like
// a member when a neighbour improves, and keeps what that writes — but is
// assigned no new value. That rule is part of every recorded trajectory
// and work count, so it is kept: resolving the gathered edges finds the
// ghosts by their kn index below vicBase, gathers their edges against the
// present transistor states, and from there the worklist does not tell
// them from members.
func (s *Solver) solveVicinity(c *Circuit, newVal []logic.Value) {
	base, n := s.vicBase, len(s.vic)
	s.work.Vicinities++
	s.work.NodesSolved += int64(n)
	if n == 1 {
		newVal[0] = s.solveSingle(&s.kn[base])
	} else {
		s.relaxVicinity(c, newVal)
	}
	if s.onSolve != nil {
		s.onSolve(c, newVal)
	}
}

// relaxVicinity is solveVicinity for two members or more.
func (s *Solver) relaxVicinity(c *Circuit, newVal []logic.Value) {
	base, n := s.vicBase, len(s.vic)
	for i := 0; i < len(s.edges); i++ { // gatherGhost appends
		j := s.loc[s.edges[i].to]
		if int(j) < base && s.kn[j].gathered != int32(base) {
			s.gatherGhost(c, j)
		}
		s.edges[i].to = j
	}
	kn, edges := s.kn, s.edges
	relax := int64(0)

	// Phase 1: def relaxation (monotone max over the finite strength
	// lattice). Worklist to the least fixpoint: every node is computed
	// once, and recomputed only when a channel neighbor's def improved —
	// the fixpoint is unique (monotone operator from a bottom init), so
	// the values match a sweep-to-stability loop exactly, without its
	// full confirming passes. FIFO order is deterministic, so the relax
	// counters are too.
	rq := s.rq[:0]
	for i := base; i < base+n; i++ {
		kn[i].def = kn[i].charge // the node's own charge is always definitely present
		kn[i].queued = true
		rq = append(rq, int32(i))
	}
	for head := 0; head < len(rq); head++ {
		k := &kn[rq[head]]
		k.queued = false
		relax++
		best := max(k.def, k.sdef)
		es := edges[k.edgeLo:k.edgeHi]
		for _, e := range es {
			// Only definitely-conducting paths carry definite signals.
			if e.hi {
				if a := logic.Attenuate(kn[e.to].def, e.drive); a > best {
					best = a
				}
			}
		}
		if best > k.def {
			k.def = best
			// Requeue the neighbors that read this def.
			for _, e := range es {
				if t := &kn[e.to]; e.hi && !t.queued {
					t.queued = true
					rq = append(rq, e.to)
				}
			}
		}
	}

	// Phase 2: value-carrying strengths, blocked at every node by signals
	// weaker than def there. Roots contribute only if unblocked.
	rq = rq[:0]
	for i := base; i < base+n; i++ {
		k := &kn[i]
		k.setRoots()
		k.queued = true
		rq = append(rq, int32(i))
	}
	// Same worklist scheme as phase 1; value-carrying signals flow
	// through transistors in state 1 or X.
	for head := 0; head < len(rq); head++ {
		k := &kn[rq[head]]
		k.queued = false
		relax++
		blk := k.def
		bhd, bld, bhp, blp := k.fromSources()
		es := edges[k.edgeLo:k.edgeHi]
		for _, e := range es {
			t := &kn[e.to]
			g := e.drive
			if e.hi {
				// Definitely conducting: definite signals stay definite.
				if a := logic.Attenuate(t.hd, g); a >= blk && a > bhd {
					bhd = a
				}
				if a := logic.Attenuate(t.ld, g); a >= blk && a > bld {
					bld = a
				}
			}
			// Possibly conducting (1 or X): possible signals flow.
			if a := logic.Attenuate(t.hp, g); a >= blk && a > bhp {
				bhp = a
			}
			if a := logic.Attenuate(t.lp, g); a >= blk && a > blp {
				blp = a
			}
		}
		if bhd > k.hd || bld > k.ld || bhp > k.hp || blp > k.lp {
			k.hd, k.ld, k.hp, k.lp = bhd, bld, bhp, blp
			for _, e := range es {
				if t := &kn[e.to]; !t.queued {
					t.queued = true
					rq = append(rq, e.to)
				}
			}
		}
	}
	s.rq = rq[:0]
	s.work.RelaxSteps += relax

	for i := range newVal {
		newVal[i] = kn[base+i].decide()
	}
}

// setRoots starts the value-carrying strengths from the node's own charge,
// which counts only if no stronger definite signal blocks it.
func (k *vicNode) setRoots() {
	k.hd, k.ld, k.hp, k.lp = 0, 0, 0, 0
	if ch := k.charge; ch >= k.def {
		switch k.val {
		case logic.Hi:
			k.hd, k.hp = ch, ch
		case logic.Lo:
			k.ld, k.lp = ch, ch
		case logic.X:
			k.hp, k.lp = ch, ch
		}
	}
}

// fromSources returns the node's value-carrying strengths raised by the
// unblocked signals of its adjacent input-like nodes.
func (k *vicNode) fromSources() (hd, ld, hp, lp logic.Strength) {
	blk := k.def
	hd, ld, hp, lp = k.hd, k.ld, k.hp, k.lp
	if a := k.shd; a >= blk && a > hd {
		hd = a
	}
	if a := k.sld; a >= blk && a > ld {
		ld = a
	}
	if a := k.shp; a >= blk && a > hp {
		hp = a
	}
	if a := k.slp; a >= blk && a > lp {
		lp = a
	}
	return hd, ld, hp, lp
}

// decide reads the node's new value off its settled strengths.
func (k *vicNode) decide() logic.Value {
	switch {
	case k.hd > k.lp:
		return logic.Hi
	case k.ld > k.hp:
		return logic.Lo
	}
	return logic.X
}

// solveSingle is solveVicinity for a vicinity of one node: over half of
// all solves in the RAM workloads are one storage node against its
// input-like neighborhood (a pass gate into a cell, a precharged line),
// and with the sources summarized both fixpoints are closed forms. The
// node's edges are not read: an edge of a lone member leads to itself or
// to a ghost, and the one-node case has never looked at either. The relax
// count is the historical one — one step per phase, plus one confirming
// step for each phase that improved on its roots.
func (s *Solver) solveSingle(k *vicNode) logic.Value {
	relax := int64(2)
	k.def = max(k.charge, k.sdef)
	if k.def > k.charge {
		relax++
	}
	k.setRoots()
	hd, ld, hp, lp := k.fromSources()
	if hd > k.hd || ld > k.ld || hp > k.hp || lp > k.lp {
		relax++
		k.hd, k.ld, k.hp, k.lp = hd, ld, hp, lp
	}
	s.work.RelaxSteps += relax
	return k.decide()
}
