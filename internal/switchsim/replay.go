package switchsim

import (
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// SettleReplay settles circuit c — a faulty circuit's materialized
// pre-step view — against the good circuit's recorded trajectory. This is
// the concurrent simulator's fast path: regions where the faulty circuit
// provably behaves identically to the good circuit are not re-solved;
// their recorded changes are adopted instead.
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
// Flags blocking adoption accumulate per replay: the static interest set
// (divergence records and their gated terminals, fault sites, and any
// node that is input-like in c but not in the good circuit — i.e. fault
// forces) seeded by the caller through BeginReplay/SeedDiverged, members
// of vicinities this replay solves, the channel terminals of transistors
// those members gate, and the change sites of unadopted trajectory
// vicinities (with their gated terminals). The diverged set is kept as a
// queue re-scanned against each round's member→vicinity index, so
// per-round flagging costs O(diverged set), not O(trajectory). Blocking
// is conservative: a blocked-but-identical vicinity is simply solved by
// the wave with the same result, at the cost of extra work.
//
// Callers MUST call BeginReplay (then SeedDiverged for each statically
// diverged node) before each SettleReplay; the replay consumes the epoch.
// The replay ends as soon as its pending queue drains: trajectory rounds
// beyond the circuit's own wave cannot affect its state (unreached
// vicinities are never adopted, and divergence-by-inaction is the
// caller's good-changed diff), so they are not scanned.
func (s *Solver) SettleReplay(c *Circuit, seeds []netlist.NodeID, traj *Trajectory) SettleResult {
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

		s.epoch++ // vicinity stamps for this round
		s.next = s.next[:0]
		s.pendEpoch++

		var trajRound []VicTrace
		if round < traj.NumRounds() {
			trajRound = traj.Round(round)
		}
		if cap(s.vicAdopted) < len(trajRound) {
			s.vicAdopted = make([]bool, len(trajRound)*2)
		}
		flagged := s.vicAdopted[:len(trajRound)]

		// Pass A — index this round's trajectory vicinities by member
		// node and compute initial divergence flags in the same
		// traversal: a vicinity containing a diverged (or fault-forced)
		// member must not be adopted, and its unfollowed changes may
		// leave their nodes — and the transistors they gate — diverged.
		genRound := s.dynGen
		for vi := range trajRound {
			vt := &trajRound[vi]
			flag := false
			for _, u := range vt.Members {
				adopted++ // indexing cost, counted honestly
				s.nodeVic[u] = int32(vi)
				s.nodeVicStamp[u] = s.epoch
				if !flag && (s.dynStamp[u] == s.dynEpoch || c.IsInputLike(u)) {
					flag = true
				}
			}
			flagged[vi] = flag
			if flag {
				for _, ch := range vt.Changes {
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
				for vi := range trajRound {
					if flagged[vi] {
						continue
					}
					vt := &trajRound[vi]
					for _, u := range vt.Members {
						adopted++
						if s.dynStamp[u] == s.dynEpoch || c.IsInputLike(u) {
							flagged[vi] = true
							again = true
							for _, ch := range vt.Changes {
								s.markDiverged(ch.Node)
							}
							break
						}
					}
				}
			}
		}
		genA := s.dynGen // divergence set as of the adoption decisions

		// Pass B — service the pend queue in order: adopt where provably
		// identical (re-checking against marks added by this pass's own
		// solves), solve otherwise.
		for _, seed := range s.pend {
			if c.IsInputLike(seed) || s.stamp[seed] == s.epoch {
				continue // forced by the fault, or already serviced
			}
			if s.nodeVicStamp[seed] == s.epoch && !flagged[s.nodeVic[seed]] {
				vt := &trajRound[s.nodeVic[seed]]
				// An unflagged vicinity had no diverged member at the end
				// of Pass A; if no mark was added since (no solve ran),
				// that still holds and the member re-scan is skipped.
				adoptable := s.dynGen == genA
				if !adoptable {
					adoptable = true
					for _, u := range vt.Members {
						adopted++
						if s.dynStamp[u] == s.dynEpoch {
							adoptable = false
							break
						}
					}
				}
				if adoptable {
					s.work.AdoptedVics++
					for _, u := range vt.Members {
						s.stamp[u] = s.epoch // serviced
					}
					for _, ch := range vt.Changes {
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

	s.work.AdoptedChanges += adopted
	res.Changed = s.changed
	res.Explored = s.explored
	return res
}

// SettleReplayIndexed is SettleReplay driven by a prebuilt ReplayIndex:
// the trajectory indexing and static flag computation that SettleReplay
// performs per circuit (Pass A) come precomputed from the index, shared by
// every lane of the word group, and only this lane's dynamic divergence is
// examined per round. The replay is the index's lane (word, bit); the
// caller must have Built the index from this setting's trajectory and a
// div row set in which that lane's bits are exactly the static divergence
// set it would otherwise have seeded via BeginReplay/SeedDiverged. No
// seeding calls are needed (or allowed): the replay opens its own epoch.
//
// Lane-for-lane, the replay makes the same adoption decisions and solves
// the same vicinities in the same order as SettleReplay, with one
// refinement: members of already-adopted vicinities are excluded from the
// same round's later explorations by the index's vicinity map instead of
// by member stamps, so adopting a vicinity is O(changes), not O(members).
// A faulty circuit can only conduct into an adopted vicinity through a
// transistor whose gate diverged after the adoption decision; the gate's
// change marks the terminals diverged and perturbs them for the next
// round, where the vicinity is flagged and re-solved — the unit-delay
// schedule the scalar path follows too.
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

		s.epoch++ // vicinity stamps for this round
		s.next = s.next[:0]
		s.pendEpoch++

		var (
			trajRound []VicTrace
			vicOf     []int32
			vicStamp  []uint32
			flags     []uint64
		)
		if round < ix.rounds {
			trajRound = traj.Round(round)
			vicOf, vicStamp = ix.vicOf[round], ix.vicStamp[round]
			flags = ix.flags[round]
		}
		if cap(s.vicState) < len(trajRound) {
			s.vicState = make([]uint8, len(trajRound)*2)
		}
		vicState := s.vicState[:len(trajRound)]

		// Static flags: one bit probe per vicinity, precomputed by Build.
		// The flags layout is word-major, so this lane's probes are one
		// contiguous branchless scan.
		fw := flags[word*len(trajRound):]
		for vi := range vicState {
			vicState[vi] = uint8(fw[vi]>>bit) & vicFlagged
		}
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
				if vi := vicOf[u]; vicState[vi]&vicFlagged == 0 {
					vicState[vi] |= vicFlagged
					for _, ch := range trajRound[vi].Changes {
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
				st := vicState[vi]
				if st&vicServiced != 0 {
					continue // adopted earlier this round
				}
				if st&vicFlagged == 0 {
					vt := &trajRound[vi]
					// An unflagged vicinity had no diverged member at the
					// adoption decisions; if no mark was added since (no
					// solve ran), that still holds without rescanning.
					adoptable := s.dynGen == genA
					if !adoptable {
						adoptable = true
						for _, u := range vt.Members {
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
						for _, ch := range vt.Changes {
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

// BeginReplay opens a new replay divergence epoch: the caller seeds the
// statically diverged nodes (divergence records with their gated channel
// terminals, fault sites, fault-forced nodes) via SeedDiverged, then runs
// SettleReplay, which consumes the epoch. Folding the static set into the
// dynamic divergence queue lets the adoption flagging cost scale with the
// circuit's divergence instead of the trajectory size.
func (s *Solver) BeginReplay() {
	s.dynEpoch++
	s.dynList = s.dynList[:0]
}

// SeedDiverged marks node n as statically diverged from the good circuit
// for the upcoming SettleReplay: trajectory vicinities containing n are
// solved rather than adopted.
func (s *Solver) SeedDiverged(n netlist.NodeID) { s.markDyn(n) }

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
