package switchsim

import (
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// SettleReplayIndexed settles circuit c — a faulty circuit's materialized
// pre-step view — against the good circuit's recorded trajectory, as lane
// (word, bit) of a prebuilt ReplayIndex. This is the concurrent
// simulator's fast path: regions where the faulty circuit provably behaves
// identically to the good circuit are not re-solved; their recorded
// changes are adopted instead.
//
// The replay reproduces a standalone simulation of the faulty circuit
// exactly, including within-round processing order: the seeds are the
// circuit's own response to the input setting, further perturbations arise
// solely from gate switching, and each round's pending vicinities are
// serviced in pend-queue order — by adoption when the pending node lies in
// an unflagged trajectory vicinity of the same round (its membership,
// boundary, charge state, and position in the processing order all match
// the good circuit's, so its response is the good circuit's recorded
// response), and by a full switch-level solve otherwise. Trajectory
// vicinities not reached by the circuit's own pend queue are never
// adopted: the faulty circuit was not perturbed there ("divergence by
// inaction" — the caller's good-changed diff records the difference).
//
// Flags blocking adoption come from two places. The static ones — the
// lane's interest set (divergence records and their gated terminals, fault
// sites, and any node that is input-like in c but not in the good circuit,
// i.e. fault forces) closed over the change sites of the vicinities it
// flags — are precomputed by ReplayIndex.Build for every lane of the word
// group at once; the caller must have Built the index from this setting's
// trajectory and a div row set in which this lane's bits are exactly that
// static set. The dynamic ones accumulate per replay: members of
// vicinities this replay solves, the channel terminals of transistors
// those members gate, and the change sites of trajectory vicinities
// flagged because of them. The dynamic set is kept as a list re-scanned
// against each round's member→vicinity map, and a vicinity's static bit is
// probed only when a seed or a dynamic mark first touches it, so a round
// costs the lane its own activity and divergence, never the round's
// vicinity count. Blocking is conservative: a blocked-but-identical
// vicinity is simply solved by the wave with the same result, at the cost
// of extra work.
//
// Members of already-adopted vicinities are excluded from the same round's
// later explorations by the index's vicinity map, so adopting a vicinity
// is O(changes), not O(members). A faulty circuit can only conduct into an
// adopted vicinity through a transistor whose gate diverged after the
// adoption decision; the gate's change marks the terminals diverged and
// perturbs them for the next round, where the vicinity is flagged and
// re-solved — the unit-delay schedule.
//
// The replay ends as soon as its pending queue drains: trajectory rounds
// beyond the circuit's own wave cannot affect its state (unreached
// vicinities are never adopted, and divergence-by-inaction is the
// caller's good-changed diff), so they are not scanned.
func (s *Solver) SettleReplayIndexed(c *Circuit, seeds []netlist.NodeID, ix *ReplayIndex, word int, bit uint) SettleResult {
	nw := s.tab.Net
	traj := ix.traj
	s.work.Settles++
	s.exploredEpoch++
	s.explored = s.explored[:0]
	s.changedEpoch++
	s.changed = s.changed[:0]
	s.dynEpoch++
	s.dynList = s.dynList[:0]

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

		// The round's trajectory vicinities are [vlo, vlo+nvic); vicOf
		// and the per-vicinity state are round-local (0-based). The flags
		// layout is word-major, so fw is this lane's word for each.
		var (
			vlo, nvic int
			vicOf     []int32
			vicStamp  []uint32
			fw        []uint64
		)
		if round < ix.rounds {
			var vhi int
			vlo, vhi = traj.RoundSpan(round)
			nvic = vhi - vlo
			vicOf, vicStamp = ix.vicOf[round], ix.vicStamp[round]
			fw = ix.flags[round][word*nvic:]
		}
		if len(s.vicState) < nvic {
			s.vicState = make([]uint32, nvic*2)
		}
		vicState := s.vicState
		s.nextVicTag()
		// Dynamic overlay: flag vicinities containing nodes this replay has
		// marked (solved members and their gated terminals, from any earlier
		// round). A newly flagged vicinity's unfollowed changes are marked in
		// turn, growing the list as it is scanned — the within-round flag
		// fixpoint for free.
		if vicStamp != nil {
			for i := 0; i < len(s.dynList); i++ {
				u := s.dynList[i]
				if vicStamp[u] != ix.epoch {
					continue
				}
				if vi := vicOf[u]; s.probeVic(vi, fw, bit)&vicFlagged == 0 {
					vicState[vi] |= vicFlagged
					for _, ch := range traj.Changes(vlo + int(vi)) {
						s.markDiverged(ch.Node)
					}
				}
			}
		}
		genA := s.dynGen // divergence set as of the adoption decisions
		if vicStamp != nil {
			s.rvVicOf, s.rvVicStamp, s.rvEpoch, s.rvState = vicOf, vicStamp, ix.epoch, vicState
		} else {
			s.rvVicOf, s.rvVicStamp, s.rvState = nil, nil, nil
		}

		for _, seed := range s.pend {
			if c.IsInputLike(seed) || s.stamp[seed] == s.epoch {
				continue // forced by the fault, or solved this round
			}
			if vicStamp != nil && vicStamp[seed] == ix.epoch {
				vi := vicOf[seed]
				st := s.probeVic(vi, fw, bit)
				if st&vicServiced != 0 {
					continue // adopted earlier this round
				}
				if st&vicFlagged == 0 {
					// An unflagged vicinity had no diverged member at the
					// adoption decisions; if no mark was added since (no
					// solve ran), that still holds without rescanning.
					adoptable := s.dynGen == genA
					if !adoptable {
						adoptable = true
						for _, u := range traj.Members(vlo + int(vi)) {
							adopted++
							if s.dynStamp[u] == s.dynEpoch {
								adoptable = false
								break
							}
						}
					}
					if adoptable {
						s.work.AdoptedVics++
						vicState[vi] |= vicServiced
						for _, ch := range traj.Changes(vlo + int(vi)) {
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
	s.rvVicOf, s.rvVicStamp, s.rvState = nil, nil, nil

	s.work.AdoptedChanges += adopted
	res.Changed = s.changed
	res.Explored = s.explored
	return res
}

// probeVic returns the state of the current round's trajectory vicinity vi
// for the replaying lane, whose static flag words are fw: the round's first
// touch loads the lane's static bit under the round's tag.
func (s *Solver) probeVic(vi int32, fw []uint64, bit uint) uint32 {
	st := s.vicState[vi]
	if st&^(vicTagStep-1) != s.rvTag {
		st = s.rvTag | uint32(fw[vi]>>bit)&vicFlagged
		s.vicState[vi] = st
	}
	return st
}

// markDiverged flags a node that may now differ from the good circuit,
// together with the channel terminals of the transistors it gates (which
// may consequently switch differently).
func (s *Solver) markDiverged(u netlist.NodeID) {
	s.markDyn(u)
	for _, e := range s.tab.GatedByOf(u) {
		s.markDyn(e.Src)
		s.markDyn(e.Drn)
	}
}
