package switchsim

import (
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// SettleReplayIndexed is the one unit-delay settle loop. With a nil ix
// there is nothing to adopt and every pending vicinity is solved: that is
// Settle, and the only form that records s.Traj (when s.Record is set).
//
// With an index it settles circuit c — a faulty circuit's materialized
// pre-step view — against the good circuit's recorded trajectory, as lane
// (word, bit) of the prebuilt ReplayIndex. This is the concurrent
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
//
// Riding the good wave. While the circuit's pend queue is the good
// circuit's and no vicinity of the round is flagged for its lane, a round
// of the loop below does what the good circuit did: every seed lands in an
// unflagged vicinity and is adopted or already serviced, every change is
// written where the two circuits agree, every write flips the transistors
// it flipped in the good circuit and pushes the same terminals. If the
// index was Compiled for the setting, those leading rounds are not walked:
// a replay whose deduplicated seeds equal the compiled P_0 skips rounds
// 0..k-1, k being the first round (ReplayIndex.sharedRounds)
//
//   - whose roundAny bit is set for the lane — some vicinity must be solved,
//     and with it the lane's divergence, flips and pushes become its own;
//   - in which the good circuit flips a transistor c pins — an adopted
//     change only flips transistors gated by members of unflagged
//     vicinities, where c's values are the good circuit's, so c's flips
//     can differ from the good circuit's at a pinned transistor alone; the
//     pin's gate is not in the lane's static set, so no flag says so;
//   - past MaxRounds — from there on adopted values are joined with the old
//     ones, which the compiled writes are not.
//
// c's pushes can differ from the good circuit's only at a node c forces
// (input-like in c alone); a forced storage node is a fault site, so a
// round in which it is pending is flagged, and it can appear only in P_k,
// which is loaded without it. The skipped rounds' writes, flips, Rounds,
// AdoptedVics, AdoptedChanges and Changed entries are added exactly as the
// walk would have produced them and nothing else was touched (no solve
// ran), so SettleResult, Work and the circuit are the walk's, bit for bit.
// An index that was only Built compiles nothing and every replay walks.
func (s *Solver) SettleReplayIndexed(c *Circuit, seeds []netlist.NodeID, ix *ReplayIndex, word int, bit uint) SettleResult {
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
	// In X-mode each node value moves at most once (toward X) and each
	// transistor follows, so settling is guaranteed within the hard cap.
	hardCap := maxRounds + 2*(nw.NumNodes()+nw.NumTransistors()) + 16
	if s.hardCap > 0 {
		hardCap = s.hardCap
	}

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
	zeroChange := int64(0)

	record := ix == nil && s.Record
	if record {
		s.Traj.reset()
	}
	var traj *Trajectory
	first := 0
	if ix != nil {
		traj = ix.traj
		s.dynEpoch++
		s.dynList = s.dynList[:0]
		s.replay.Lanes++
		// Riding the good wave: the rounds this lane shares with the good
		// circuit are applied from the compiled wave, not walked.
		if first = ix.sharedRounds(c, s.pend, word, bit, maxRounds); first > 0 {
			res.Rounds = first
			adopted = s.rideWave(c, ix, first)
		}
	}

	for round := first; len(s.pend) > 0; round++ {
		if s.onRound != nil && ix != nil {
			s.onRound(round)
		}
		res.Rounds++
		s.work.Rounds++
		if res.Rounds > maxRounds && !xmode {
			xmode = true
			res.Oscillated = true
		}
		if res.Rounds > hardCap {
			// Unreachable in practice; resolve whatever is left to X and stop.
			s.pendToX(c, record)
			break
		}

		s.beginRound()
		if ix == nil && cap(s.kn) < len(s.pend) {
			// Every pending seed is solved this round: size the kernel
			// storage once instead of doubling up to a settle-all.
			s.kn = make([]vicNode, 0, len(s.pend))
		}
		s.next = s.next[:0]
		s.pendEpoch++

		// The round's trajectory vicinities are [vlo, vlo+nvic); the map
		// and the per-vicinity state are round-local (0-based). The flags
		// layout is word-major, so fw is this lane's word for each. Past
		// the trajectory's last round, and with no index, vicMap is nil and
		// every pending vicinity is solved.
		var (
			vlo, nvic int
			vicMap    []uint64
			fw        []uint64
			vicState  []uint32
		)
		s.rvState = nil
		if ix != nil && round < ix.rounds {
			var vhi int
			vlo, vhi = traj.RoundSpan(round)
			nvic = vhi - vlo
			vicMap = ix.vicMap[round]
			fw = ix.flags[round][word*nvic:]
			if len(s.vicState) < nvic {
				s.vicState = make([]uint32, nvic*2)
			}
			vicState = s.vicState
			s.nextVicTag()
			s.rvMap, s.rvEpoch, s.rvState = vicMap, ix.epoch, vicState
			// Dynamic overlay: flag vicinities containing nodes this replay
			// has marked (solved members and their gated terminals, from any
			// earlier round). A newly flagged vicinity's unfollowed changes
			// are marked in turn, growing the list as it is scanned — the
			// within-round flag fixpoint for free.
			for i := 0; i < len(s.dynList); i++ {
				m := vicMap[s.dynList[i]]
				if uint32(m>>32) != ix.epoch {
					continue
				}
				if vi := int32(uint32(m) >> 1); s.probeVic(vi, fw, bit)&vicFlagged == 0 {
					vicState[vi] |= vicFlagged
					for _, ch := range ix.changes(vlo + int(vi)) {
						s.markDiverged(ch.Node)
					}
				}
			}
		}
		genA := s.dynGen // divergence set as of the adoption decisions

		// Every pending node is a storage node of this circuit (seeds and
		// pushes are filtered as they are queued), and one solved earlier
		// this round is turned away by exploreVicinity.
		for _, seed := range s.pend {
			if vicMap != nil {
				if m := vicMap[seed]; uint32(m>>32) == ix.epoch {
					vi := int32(uint32(m) >> 1)
					st := s.probeVic(vi, fw, bit)
					if st&vicServiced != 0 {
						continue // adopted earlier this round
					}
					if st&vicFlagged == 0 {
						// An unflagged vicinity had no diverged member at the
						// adoption decisions; if no mark was added since, that
						// still holds without rescanning — and the seed cannot
						// have been solved this round, for a solve marks its
						// members, and a member marked before the decisions
						// had flagged this vicinity.
						adoptable := s.dynGen == genA
						if !adoptable {
							if s.stamp[seed] == s.epoch {
								continue // solved this round
							}
							adoptable = true
							for _, u := range ix.members(vlo + int(vi)) {
								adopted++
								if s.dynStamp[u] == s.dynEpoch {
									adoptable = false
									break
								}
							}
						}
						if adoptable {
							s.work.AdoptedVics++
							vicState[vi] = st | vicServiced
							if m&1 == 0 {
								zeroChange++
								continue
							}
							for _, ch := range ix.changes(vlo + int(vi)) {
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
				if vicMap != nil {
					s.markDiverged(u)
				}
			}
			newVal := s.vicNewVal()
			s.solveVicinity(c, newVal)
			if record {
				s.Traj.nodes = append(s.Traj.nodes, s.vic...)
			}
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
				if record {
					s.Traj.changes = append(s.Traj.changes, Change{Node: u, Value: nv})
				}
				// The state change switches the transistors this node
				// gates; their channel terminals are perturbed next round.
				s.propagate(c, u)
			}
			if record {
				s.Traj.endVicinity()
			}
		}
		if record {
			s.Traj.endRound()
		}

		s.pend, s.next = s.next, s.pend
	}
	s.rvMap, s.rvState = nil, nil

	s.work.AdoptedChanges += adopted
	s.replay.ZeroChangeAdoptions += zeroChange
	res.Changed = s.changed
	res.Explored = s.explored
	return res
}

// pendToX resolves every pending node to X; a recording settle records the
// writes as a round of one memberless vicinity, so Traj holds every write.
func (s *Solver) pendToX(c *Circuit, record bool) {
	for _, n := range s.pend {
		if c.val[n] != logic.X {
			c.val[n] = logic.X
			s.noteChanged(n)
			if record {
				s.Traj.changes = append(s.Traj.changes, Change{Node: n, Value: logic.X})
			}
		}
	}
	if record {
		s.Traj.endVicinity()
		s.Traj.endRound()
	}
}

// rideWave applies the first k rounds of ix's compiled wave to c, whose
// replay shares them with the good circuit (sharedRounds): the rounds'
// writes and flips, their share of the work counters, and P_k as the pend
// queue. It returns the adopted-change count of the skipped rounds.
func (s *Solver) rideWave(c *Circuit, ix *ReplayIndex, k int) (adopted int64) {
	traj, wv := ix.traj, &ix.wave
	nvic, _, nch := traj.roundEnd(k - 1)
	for _, ch := range traj.changes[:nch] {
		if c.val[ch.Node] == ch.Value {
			continue
		}
		c.val[ch.Node] = ch.Value
		s.noteChanged(ch.Node)
	}
	for _, f := range wv.flips[:wv.flipEnd[k-1]] {
		c.ts[f.t] = f.st
	}
	// The good circuit may have perturbed the node this lane forces; a
	// forced node is never pending, and a queue holding nothing else would
	// cost a round the walk never ran.
	s.pend = s.pend[:0]
	for _, n := range wv.pendAt(k) {
		if !c.inputLike[n] {
			s.pend = append(s.pend, n)
		}
	}
	s.work.Rounds += int64(k)
	s.work.AdoptedVics += int64(nvic)
	s.replay.FastForwarded++
	s.replay.RoundsSkipped += int64(k)
	s.replay.AdoptionsSkipped += int64(nvic)
	return int64(nch)
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
