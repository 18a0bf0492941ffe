package switchsim

import (
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// ScalarReplay is the one-circuit replay SettleReplayIndexed is checked
// against (TestIndexedReplayMatchesScalar): the same adoption rule, with
// the trajectory indexing and the static flag closure done per circuit,
// per round, from a divergence set seeded node by node — what a
// ReplayIndex precomputes for a whole word group. It drives the solver's
// own kernel and marks adopted vicinities the way the indexed replay does,
// so the two differ only in where the flags come from.
type ScalarReplay struct {
	s *Solver

	// nodeVic[n] names the trajectory vicinity containing n this round, in
	// the layout of ReplayIndex.vicMap under the solver's round epoch;
	// state is the per-round flagged/serviced buffer.
	nodeVic []uint64
	state   []uint32
}

// NewScalarReplay returns a scalar replayer driving solver s.
func NewScalarReplay(s *Solver) *ScalarReplay {
	n := s.tab.Net.NumNodes()
	return &ScalarReplay{s: s, nodeVic: make([]uint64, n)}
}

// BeginReplay opens a new replay divergence epoch: the caller seeds the
// statically diverged nodes (divergence records with their gated channel
// terminals, fault sites, fault-forced nodes) via SeedDiverged, then runs
// SettleReplay, which consumes the epoch.
func (sr *ScalarReplay) BeginReplay() {
	sr.s.dynEpoch++
	sr.s.dynList = sr.s.dynList[:0]
}

// SeedDiverged marks node n as statically diverged from the good circuit
// for the upcoming SettleReplay: trajectory vicinities containing n are
// solved rather than adopted.
func (sr *ScalarReplay) SeedDiverged(n netlist.NodeID) { sr.s.markDyn(n) }

// SettleReplay settles c against traj; see SettleReplayIndexed for the
// rule. Callers MUST call BeginReplay (then SeedDiverged for each
// statically diverged node) first.
func (sr *ScalarReplay) SettleReplay(c *Circuit, seeds []netlist.NodeID, traj *Trajectory) SettleResult {
	s := sr.s
	nw := s.tab.Net
	s.work.Settles++
	s.exploredEpoch++
	s.explored = s.explored[:0]
	s.changedEpoch++
	s.changed = s.changed[:0]

	maxRounds := s.MaxRounds
	if maxRounds <= 0 {
		maxRounds = s.defaultMaxRounds()
	}
	hardCap := maxRounds + 2*(nw.NumNodes()+nw.NumTransistors()) + 16

	s.pend = s.pend[:0]
	s.next = s.next[:0]
	s.pendEpoch++
	for _, n := range seeds {
		if c.IsInputLike(n) || s.pendStamp[n] == s.pendEpoch {
			continue
		}
		s.pendStamp[n] = s.pendEpoch
		s.pend = append(s.pend, n)
	}

	res := SettleResult{}
	xmode := false
	adopted := int64(0)
	members, changes := Vicinities(traj)

	for round := 0; len(s.pend) > 0; round++ {
		res.Rounds++
		s.work.Rounds++
		if res.Rounds > maxRounds && !xmode {
			xmode = true
			res.Oscillated = true
		}
		if res.Rounds > hardCap {
			for _, n := range s.pend {
				if c.val[n] != logic.X {
					c.val[n] = logic.X
					s.noteChanged(n)
				}
			}
			break
		}

		s.beginRound()
		s.next = s.next[:0]
		s.pendEpoch++

		vlo, vhi := 0, 0
		if round < traj.NumRounds() {
			vlo, vhi = traj.RoundSpan(round)
		}
		if cap(sr.state) < vhi-vlo {
			sr.state = make([]uint32, (vhi-vlo)*2)
		}
		state := sr.state[:vhi-vlo]
		s.nextVicTag()

		// Pass A — index this round's trajectory vicinities by member
		// node and compute initial divergence flags in the same
		// traversal: a vicinity containing a diverged (or fault-forced)
		// member must not be adopted, and its unfollowed changes may
		// leave their nodes — and the transistors they gate — diverged.
		genRound := s.dynGen
		for vi := vlo; vi < vhi; vi++ {
			state[vi-vlo] = s.rvTag
			for _, u := range members[vi] {
				adopted++ // indexing cost, counted honestly
				sr.nodeVic[u] = uint64(s.epoch)<<32 | uint64(vi-vlo)<<1
				if s.dynStamp[u] == s.dynEpoch || c.IsInputLike(u) {
					state[vi-vlo] |= vicFlagged
				}
			}
			if state[vi-vlo]&vicFlagged != 0 {
				for _, ch := range changes[vi] {
					s.markDiverged(ch.Node)
				}
			}
		}
		// Fixpoint continuation, needed only when the first traversal
		// added marks: the good circuit propagates eagerly within a
		// round, so one round's trajectory can contain chains of
		// dependent vicinities; a vicinity whose changes this circuit
		// will not follow must poison downstream vicinities of the SAME
		// round before any adoption decision is made.
		if s.dynGen != genRound {
			for again := true; again; {
				again = false
				for vi := vlo; vi < vhi; vi++ {
					if state[vi-vlo]&vicFlagged != 0 {
						continue
					}
					for _, u := range members[vi] {
						adopted++
						if s.dynStamp[u] == s.dynEpoch || c.IsInputLike(u) {
							state[vi-vlo] |= vicFlagged
							again = true
							for _, ch := range changes[vi] {
								s.markDiverged(ch.Node)
							}
							break
						}
					}
				}
			}
		}
		genA := s.dynGen // divergence set as of the adoption decisions
		s.rvMap, s.rvEpoch, s.rvState = sr.nodeVic, s.epoch, state

		// Pass B — service the pend queue in order: adopt where provably
		// identical (re-checking against marks added by this pass's own
		// solves), solve otherwise.
		for _, seed := range s.pend {
			if c.IsInputLike(seed) || s.stamp[seed] == s.epoch {
				continue // forced by the fault, or solved this round
			}
			if m := sr.nodeVic[seed]; uint32(m>>32) == s.epoch {
				vi := uint32(m) >> 1
				if state[vi]&vicServiced != 0 {
					continue // adopted earlier this round
				}
				if state[vi]&vicFlagged == 0 {
					// An unflagged vicinity had no diverged member at the end
					// of Pass A; if no mark was added since (no solve ran),
					// that still holds and the member re-scan is skipped.
					adoptable := s.dynGen == genA
					if !adoptable {
						adoptable = true
						for _, u := range members[vlo+int(vi)] {
							adopted++
							if s.dynStamp[u] == s.dynEpoch {
								adoptable = false
								break
							}
						}
					}
					if adoptable {
						s.work.AdoptedVics++
						state[vi] |= vicServiced
						for _, ch := range changes[vlo+int(vi)] {
							u := ch.Node
							nv := ch.Value
							if xmode {
								nv = logic.Lub(c.val[u], nv)
							}
							adopted++
							if nv == c.val[u] {
								continue
							}
							c.val[u] = nv
							s.noteChanged(u)
							s.propagate(c, u)
						}
						continue
					}
				}
			}
			// Solve with full switch-level dynamics.
			if !s.exploreVicinity(c, seed) {
				continue
			}
			for _, u := range s.vic {
				if s.exploredStamp[u] != s.exploredEpoch {
					s.exploredStamp[u] = s.exploredEpoch
					s.explored = append(s.explored, u)
				}
				s.markDiverged(u)
			}
			newVal := s.vicNewVal()
			s.solveVicinity(c, newVal)
			for i, u := range s.vic {
				nv := newVal[i]
				if xmode {
					nv = logic.Lub(c.val[u], nv)
				}
				if nv == c.val[u] {
					continue
				}
				c.val[u] = nv
				s.noteChanged(u)
				s.propagate(c, u)
			}
		}

		s.pend, s.next = s.next, s.pend
	}
	s.rvMap, s.rvState = nil, nil

	s.work.AdoptedChanges += adopted
	res.Changed = s.changed
	res.Explored = s.explored
	return res
}
