package switchsim

import (
	"slices"
	"testing"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// KernelOracle is the vicinity kernel as it was before exploration started
// gathering for the relaxation: explore, then relax by walking every
// member's full channel list against node-sized def/hd/ld/hp/lp arrays.
// exploreVicinity, solveVicinity and solveVicinity1 below are that code
// verbatim (receiver aside). Attached to a Solver it re-runs every solve
// on the same circuit state with its own stamps and relaxation arrays and
// reports any difference in membership, new values or work counters.
type KernelOracle struct {
	t   testing.TB
	sut *Solver // the solver under test

	tab *Tables

	stamp []uint32
	epoch uint32
	def   []logic.Strength
	hd    []logic.Strength
	ld    []logic.Strength
	hp    []logic.Strength
	lp    []logic.Strength

	vic   []netlist.NodeID
	queue []netlist.NodeID

	relaxStamp []uint32
	relaxEpoch uint32
	rq         []netlist.NodeID

	work   Work
	newVal []logic.Value

	sutEpoch uint32 // the solver's round stamp at the last solve
	sutWork  Work   // the solver's counters after the last solve
	member   []int  // member[n] == Solves marks n in the current vicinity

	// Solves counts the solves checked, Multi those with two members or
	// more, and Ghosts the multi-member solves that read a neighbour
	// stamped by an earlier vicinity of the round through a conducting
	// transistor.
	Solves, Multi, Ghosts int
}

// AttachKernelOracle checks every vicinity solve of s against the old
// kernel from now on, reporting differences through t.
func AttachKernelOracle(t testing.TB, s *Solver) *KernelOracle {
	n := s.tab.Net.NumNodes()
	o := &KernelOracle{
		t: t, sut: s, tab: s.tab,
		stamp:      make([]uint32, n),
		def:        make([]logic.Strength, n),
		hd:         make([]logic.Strength, n),
		ld:         make([]logic.Strength, n),
		hp:         make([]logic.Strength, n),
		lp:         make([]logic.Strength, n),
		relaxStamp: make([]uint32, n),
		member:     make([]int, n),
		sutWork:    s.work,
	}
	s.onSolve = o.check
	return o
}

// check replays the solve the solver under test just finished.
func (o *KernelOracle) check(c *Circuit, newVal []logic.Value) {
	sut := o.sut
	if sut.epoch != o.sutEpoch {
		o.sutEpoch = sut.epoch
		o.epoch++
	}
	o.Solves++
	if !o.exploreVicinity(c, sut.vic[0]) || !slices.Equal(o.vic, sut.vic) {
		o.t.Fatalf("solve %d: vicinity %v, oracle explored %v", o.Solves, sut.vic, o.vic)
	}
	if len(o.vic) > 1 {
		o.Multi++
		for _, u := range o.vic {
			o.member[u] = o.Solves
		}
		ghost := false
		for _, u := range o.vic {
			for _, e := range o.tab.ChannelOf(u) {
				v := e.Other
				if c.ts[e.T] != logic.Lo && !c.IsInputLike(v) && o.inVicinity(v) && o.member[v] != o.Solves {
					ghost = true
				}
			}
		}
		if ghost {
			o.Ghosts++
		}
	}
	w0 := o.work
	o.newVal = append(o.newVal[:0], newVal...)
	o.solveVicinity(c, o.newVal)
	if !slices.Equal(o.newVal, newVal) {
		o.t.Fatalf("solve %d of vicinity %v: new values %v, oracle %v", o.Solves, sut.vic, newVal, o.newVal)
	}
	want, got := o.work.Sub(w0), sut.work.Sub(o.sutWork)
	if got.Vicinities != want.Vicinities || got.NodesSolved != want.NodesSolved || got.RelaxSteps != want.RelaxSteps {
		o.t.Fatalf("solve %d of vicinity %v: work %+v, oracle %+v", o.Solves, sut.vic, got, want)
	}
	o.sutWork = sut.work
}

// inVicinity reports whether n is stamped into the current vicinity.
func (s *KernelOracle) inVicinity(n netlist.NodeID) bool { return s.stamp[n] == s.epoch }

// exploreVicinity collects into s.vic the set of storage nodes connected
// to seed by paths of conducting transistors that do not pass through
// input-like nodes. Returns false if seed is input-like or already
// explored this round.
func (s *KernelOracle) exploreVicinity(c *Circuit, seed netlist.NodeID) bool {
	if c.IsInputLike(seed) || s.stamp[seed] == s.epoch {
		return false
	}
	if s.sut.rvState != nil && s.sut.servicedThisRound(seed) {
		return false
	}
	s.vic = s.vic[:0]
	s.queue = s.queue[:0]
	s.stamp[seed] = s.epoch
	s.queue = append(s.queue, seed)
	for len(s.queue) > 0 {
		u := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.vic = append(s.vic, u)
		for _, e := range s.tab.ChannelOf(u) {
			if c.ts[e.T] == logic.Lo {
				continue // the source and drain of an open transistor are electrically isolated
			}
			v := e.Other
			if c.IsInputLike(v) {
				continue // vicinities do not extend through input nodes
			}
			if s.stamp[v] != s.epoch {
				if s.sut.rvState != nil && s.sut.servicedThisRound(v) {
					continue // adopted as part of a good-trajectory vicinity
				}
				s.stamp[v] = s.epoch
				s.queue = append(s.queue, v)
			}
		}
	}
	return true
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
func (s *KernelOracle) solveVicinity(c *Circuit, newVal []logic.Value) {
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
func (s *KernelOracle) solveVicinity1(c *Circuit, u netlist.NodeID, newVal []logic.Value) {
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
