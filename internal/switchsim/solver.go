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

	// StaticLocality disables dynamic vicinity exploration: vicinities
	// extend through transistors regardless of conduction state, i.e. the
	// network is partitioned only by its DC-connected components, as in
	// pre-MOSSIM-II switch-level simulators. Used by ablation benches.
	StaticLocality bool

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

	// Per-node scratch, epoch-stamped to avoid O(N) clearing.
	stamp []uint32 // vicinity membership stamp
	epoch uint32
	def   []logic.Strength // strongest definitely-present signal
	hd    []logic.Strength // strongest definite-high signal
	ld    []logic.Strength // strongest definite-low signal
	hp    []logic.Strength // strongest possible-high signal
	lp    []logic.Strength // strongest possible-low signal

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

	// Per-replay dynamic-divergence stamps: statically diverged nodes
	// seeded by the caller (BeginReplay/SeedDiverged), nodes the replay
	// has solved, and channel terminals of transistors they gate (see
	// SettleReplay). dynGen counts distinct marks, letting the replay
	// prove "no divergence added since" without rescanning. dynList keeps
	// the marked nodes in mark order; the indexed replay rescans it
	// against each round's member→vicinity map (cost ∝ divergence, not
	// trajectory size).
	dynStamp []uint32
	dynEpoch uint32
	dynGen   uint64
	dynList  []netlist.NodeID

	// Per-round trajectory index: nodeVic[n] is the index of the
	// trajectory vicinity containing n this round (valid when
	// nodeVicStamp matches the round epoch); vicAdopted is the per-round
	// adoption flag buffer.
	nodeVic      []int32
	nodeVicStamp []uint32
	vicAdopted   []bool

	// Indexed-replay round context (SettleReplayIndexed): the current
	// round's member→vicinity map from the prebuilt ReplayIndex and the
	// per-vicinity flagged/serviced state. While rvState is non-nil,
	// exploreVicinity treats members of serviced (adopted) vicinities as
	// outside the exploration frontier: the good circuit kept them in a
	// separate vicinity this round, and any divergence that would bridge
	// into them is marked and re-solved next round.
	rvVicOf    []int32
	rvVicStamp []uint32
	rvEpoch    uint32
	rvState    []uint8
	vicState   []uint8

	vic   []netlist.NodeID // current vicinity member list
	queue []netlist.NodeID // BFS queue

	// Worklist-relaxation scratch for solveVicinity: the FIFO of nodes
	// pending (re)computation and its membership stamp. relaxEpoch is
	// bumped once per relaxation phase.
	relaxStamp []uint32
	relaxEpoch uint32
	rq         []netlist.NodeID

	// Reusable settle-loop storage: the current and next rounds' pending
	// seeds, the per-vicinity new-value buffer, and the ApplySetting seed
	// buffer. All are valid only during/until the next Settle-family call.
	pend, next []netlist.NodeID
	newVal     []logic.Value
	seedBuf    []netlist.NodeID

	work Work
}

// NewSolver returns a solver for circuits over tab's network.
func NewSolver(tab *Tables) *Solver {
	n := tab.Net.NumNodes()
	return &Solver{
		tab:           tab,
		stamp:         make([]uint32, n),
		def:           make([]logic.Strength, n),
		hd:            make([]logic.Strength, n),
		ld:            make([]logic.Strength, n),
		hp:            make([]logic.Strength, n),
		lp:            make([]logic.Strength, n),
		exploredStamp: make([]uint32, n),
		changedStamp:  make([]uint32, n),
		pendStamp:     make([]uint32, n),
		dynStamp:      make([]uint32, n),
		nodeVic:       make([]int32, n),
		nodeVicStamp:  make([]uint32, n),
		relaxStamp:    make([]uint32, n),
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

// ResetWork zeroes the work counters.
func (s *Solver) ResetWork() { s.work = Work{} }

// inVicinity reports whether n is stamped into the current vicinity.
func (s *Solver) inVicinity(n netlist.NodeID) bool { return s.stamp[n] == s.epoch }

// exploreVicinity collects into s.vic the set of storage nodes connected
// to seed by paths of conducting transistors that do not pass through
// input-like nodes. Returns false if seed is input-like or already
// explored this round.
func (s *Solver) exploreVicinity(c *Circuit, seed netlist.NodeID) bool {
	if c.IsInputLike(seed) || s.stamp[seed] == s.epoch {
		return false
	}
	if s.rvState != nil && s.servicedThisRound(seed) {
		return false
	}
	s.vic = s.vic[:0]
	s.queue = s.queue[:0]
	s.stamp[seed] = s.epoch
	s.queue = append(s.queue, seed)
	dynamic := !s.StaticLocality
	for len(s.queue) > 0 {
		u := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.vic = append(s.vic, u)
		for _, e := range s.tab.ChannelOf(u) {
			if dynamic && c.ts[e.T] == logic.Lo {
				continue // the source and drain of an open transistor are electrically isolated
			}
			v := e.Other
			if c.IsInputLike(v) {
				continue // vicinities do not extend through input nodes
			}
			if s.stamp[v] != s.epoch {
				if s.rvState != nil && s.servicedThisRound(v) {
					continue // adopted as part of a good-trajectory vicinity
				}
				s.stamp[v] = s.epoch
				s.queue = append(s.queue, v)
			}
		}
	}
	return true
}

// servicedThisRound reports whether n belongs to a trajectory vicinity of
// the current indexed-replay round that has already been adopted. Valid
// only while rvState is set (inside SettleReplayIndexed rounds).
func (s *Solver) servicedThisRound(n netlist.NodeID) bool {
	return s.rvVicStamp[n] == s.rvEpoch && s.rvState[s.rvVicOf[n]]&vicServiced != 0
}

// solveVicinity computes the steady-state response of the current vicinity
// (s.vic) and writes the new node values into newVal (parallel to s.vic).
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
func (s *Solver) solveVicinity(c *Circuit, newVal []logic.Value) {
	vic := s.vic
	s.work.Vicinities++
	s.work.NodesSolved += int64(len(vic))
	if len(vic) == 1 {
		s.solveVicinity1(c, vic[0], newVal)
		return
	}

	relax := int64(0)

	// Phase 1: def relaxation (monotone max over the finite strength
	// lattice). Worklist to the least fixpoint: every node is computed
	// once, and recomputed only when a channel neighbor's def improved —
	// the fixpoint is unique (monotone operator from a bottom init), so
	// the values match a sweep-to-stability loop exactly, without its
	// full confirming passes. FIFO order is deterministic, so the relax
	// counters are too.
	for _, u := range vic {
		s.def[u] = s.tab.Charge[u] // the node's own charge is always definitely present
	}
	s.relaxEpoch++
	rq := s.rq[:0]
	for _, u := range vic {
		s.relaxStamp[u] = s.relaxEpoch
		rq = append(rq, u)
	}
	for head := 0; head < len(rq); head++ {
		u := rq[head]
		s.relaxStamp[u] = s.relaxEpoch - 1
		relax++
		best := s.def[u]
		for _, e := range s.tab.ChannelOf(u) {
			if c.ts[e.T] != logic.Hi {
				continue // only definitely-conducting paths carry definite signals
			}
			v := e.Other
			var sv logic.Strength
			if c.IsInputLike(v) {
				sv = s.tab.Charge[v] // ω
			} else if s.inVicinity(v) {
				sv = s.def[v]
			} else {
				continue
			}
			if a := logic.Attenuate(sv, e.Drive); a > best {
				best = a
			}
		}
		if best > s.def[u] {
			s.def[u] = best
			// def flows through definitely-conducting edges only:
			// requeue the in-vicinity neighbors that read def[u].
			for _, e := range s.tab.ChannelOf(u) {
				if c.ts[e.T] != logic.Hi {
					continue
				}
				if v := e.Other; s.inVicinity(v) && s.relaxStamp[v] != s.relaxEpoch {
					s.relaxStamp[v] = s.relaxEpoch
					rq = append(rq, v)
				}
			}
		}
	}
	s.rq = rq[:0]

	// Phase 2: value-carrying strengths, blocked at every node by signals
	// weaker than def there. Roots contribute only if unblocked.
	for _, u := range vic {
		s.hd[u], s.ld[u], s.hp[u], s.lp[u] = 0, 0, 0, 0
		ch := s.tab.Charge[u]
		if ch < s.def[u] {
			continue // own charge blocked by a stronger definite signal
		}
		switch c.val[u] {
		case logic.Hi:
			s.hd[u], s.hp[u] = ch, ch
		case logic.Lo:
			s.ld[u], s.lp[u] = ch, ch
		case logic.X:
			s.hp[u], s.lp[u] = ch, ch
		}
	}
	// Same worklist scheme as phase 1; value-carrying signals flow
	// through transistors in state 1 or X.
	s.relaxEpoch++
	rq = rq[:0]
	for _, u := range vic {
		s.relaxStamp[u] = s.relaxEpoch
		rq = append(rq, u)
	}
	for head := 0; head < len(rq); head++ {
		u := rq[head]
		s.relaxStamp[u] = s.relaxEpoch - 1
		relax++
		blk := s.def[u]
		bhd, bld, bhp, blp := s.hd[u], s.ld[u], s.hp[u], s.lp[u]
		for _, e := range s.tab.ChannelOf(u) {
			st := c.ts[e.T]
			if st == logic.Lo {
				continue
			}
			v := e.Other
			g := e.Drive
			var vhd, vld, vhp, vlp logic.Strength
			if c.IsInputLike(v) {
				w := s.tab.Charge[v] // ω
				switch c.val[v] {
				case logic.Hi:
					vhd, vhp = w, w
				case logic.Lo:
					vld, vlp = w, w
				case logic.X:
					vhp, vlp = w, w
				}
			} else if s.inVicinity(v) {
				vhd, vld, vhp, vlp = s.hd[v], s.ld[v], s.hp[v], s.lp[v]
			} else {
				continue
			}
			if st == logic.Hi {
				// Definitely conducting: definite signals stay definite.
				if a := logic.Attenuate(vhd, g); a >= blk && a > bhd {
					bhd = a
				}
				if a := logic.Attenuate(vld, g); a >= blk && a > bld {
					bld = a
				}
			}
			// Possibly conducting (1 or X): possible signals flow.
			if a := logic.Attenuate(vhp, g); a >= blk && a > bhp {
				bhp = a
			}
			if a := logic.Attenuate(vlp, g); a >= blk && a > blp {
				blp = a
			}
		}
		if bhd > s.hd[u] || bld > s.ld[u] || bhp > s.hp[u] || blp > s.lp[u] {
			s.hd[u], s.ld[u], s.hp[u], s.lp[u] = bhd, bld, bhp, blp
			for _, e := range s.tab.ChannelOf(u) {
				if c.ts[e.T] == logic.Lo {
					continue
				}
				if v := e.Other; s.inVicinity(v) && s.relaxStamp[v] != s.relaxEpoch {
					s.relaxStamp[v] = s.relaxEpoch
					rq = append(rq, v)
				}
			}
		}
	}
	s.rq = rq[:0]

	s.work.RelaxSteps += relax

	// Decide new values.
	for i, u := range vic {
		switch {
		case s.hd[u] > s.lp[u]:
			newVal[i] = logic.Hi
		case s.ld[u] > s.hp[u]:
			newVal[i] = logic.Lo
		default:
			newVal[i] = logic.X
		}
	}
}

// solveVicinity1 is the single-node specialization of solveVicinity: over
// half of all vicinity solves in the RAM workloads are one storage node
// against its input-like neighborhood (a pass gate into a cell, a
// precharged line), where both relaxation fixpoints converge in a single
// improving pass. The computed value AND the work counters are exactly
// those the general loop produces on the same vicinity — an in-vicinity
// channel neighbor can only be the node itself, whose attenuated
// contribution never exceeds the running best — so the fast path changes
// constant factors only.
func (s *Solver) solveVicinity1(c *Circuit, u netlist.NodeID, newVal []logic.Value) {
	edges := s.tab.ChannelOf(u)

	// Phase 1: one pass computes the def fixpoint; a second (counted)
	// pass would only confirm it.
	relax := int64(1)
	def := s.tab.Charge[u]
	best := def
	for _, e := range edges {
		if c.ts[e.T] != logic.Hi {
			continue
		}
		if v := e.Other; c.IsInputLike(v) {
			if a := logic.Attenuate(s.tab.Charge[v], e.Drive); a > best {
				best = a
			}
		}
	}
	if best > def {
		relax++ // the general loop's confirming pass
	}
	s.def[u] = best

	// Phase 2: roots, then one pass over the edges; again a second pass
	// could only confirm.
	var hd, ld, hp, lp logic.Strength
	if ch := s.tab.Charge[u]; ch >= best {
		switch c.val[u] {
		case logic.Hi:
			hd, hp = ch, ch
		case logic.Lo:
			ld, lp = ch, ch
		case logic.X:
			hp, lp = ch, ch
		}
	}
	relax++
	bhd, bld, bhp, blp := hd, ld, hp, lp
	for _, e := range edges {
		st := c.ts[e.T]
		if st == logic.Lo {
			continue
		}
		v := e.Other
		if !c.IsInputLike(v) {
			continue
		}
		w := s.tab.Charge[v]
		var vhd, vld, vhp, vlp logic.Strength
		switch c.val[v] {
		case logic.Hi:
			vhd, vhp = w, w
		case logic.Lo:
			vld, vlp = w, w
		case logic.X:
			vhp, vlp = w, w
		}
		g := e.Drive
		if st == logic.Hi {
			if a := logic.Attenuate(vhd, g); a >= best && a > bhd {
				bhd = a
			}
			if a := logic.Attenuate(vld, g); a >= best && a > bld {
				bld = a
			}
		}
		if a := logic.Attenuate(vhp, g); a >= best && a > bhp {
			bhp = a
		}
		if a := logic.Attenuate(vlp, g); a >= best && a > blp {
			blp = a
		}
	}
	if bhd > hd || bld > ld || bhp > hp || blp > lp {
		relax++
	}
	s.hd[u], s.ld[u], s.hp[u], s.lp[u] = bhd, bld, bhp, blp
	s.work.RelaxSteps += relax

	switch {
	case bhd > blp:
		newVal[0] = logic.Hi
	case bld > bhp:
		newVal[0] = logic.Lo
	default:
		newVal[0] = logic.X
	}
}
