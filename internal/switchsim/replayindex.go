// Word-packed trajectory indexing for lane-grouped fault replays.
//
// Replaying one faulty circuit against a trajectory needs, per round, the
// round's vicinities indexed by member node and an adoption-blocking flag
// for every vicinity that contains a node of the circuit's static
// divergence set — closed over the change sites of the vicinities so
// flagged (see SettleReplayIndexed for the adoption rule). Done per
// circuit that is O(trajectory) per activated circuit per setting, and the
// profile says that indexing, not solving, dominates a converged campaign:
// most activated circuits adopt every vicinity and change nothing.
//
// A ReplayIndex pays it once per setting for up to 64×words fault circuits
// at a time. Faults are packed into lanes (one bit position of a lane
// word); the caller supplies its static divergence sets as word-packed
// per-node rows (bit set in div[n*words+w] ⟺ lane (w, bit) is statically
// diverged at n — the batch engine's interest mask). Build computes, per
// trajectory vicinity, the word-packed set of lanes for which the vicinity
// is statically flagged, by running the flag-then-mark-changes fixpoint
// over all lanes at once with bitwise ORs, and with the marks of flagged
// vicinities (change sites and their gated channel terminals) carried
// forward across rounds in a lane-packed overlay. The closure is a least
// fixpoint of monotone bitwise operations, so each lane's column of the
// result is exactly the flag set a one-circuit pass would compute for that
// lane alone (the scalar oracle of the tests): results are bit-identical
// for every lane width and packing.
//
// SettleReplayIndexed then replays one lane against the prebuilt index:
// a static flag is one bit probe, made only for the vicinities the lane's
// wave or divergence touches, and only the lane's own dynamic divergence
// (members of vicinities it solves, and their gated terminals) is
// rescanned per round — cost ∝ the lane's activity and divergence, with
// the trajectory-sized work shared across the whole word group.
package switchsim

import (
	"fmossim/internal/netlist"
)

// Per-vicinity state of one indexed-replay round: two flag bits under a
// round tag (see Solver.vicState).
const (
	// vicFlagged blocks adoption: some member is (statically or
	// dynamically) diverged for this lane.
	vicFlagged uint32 = 1 << iota
	// vicServiced marks the vicinity as already adopted this round; its
	// members are excluded from later explorations of the same round.
	vicServiced
	// vicTagStep is the round tag's unit: tags occupy the bits above the
	// flags.
	vicTagStep
)

// ReplayIndex is the per-setting shared index over one good-circuit
// trajectory: the member→vicinity maps of every round plus word-packed
// static adoption flags per (round, vicinity, lane word). One index serves
// every lane of a fault batch for one setting; Build is called once per
// setting, SettleReplayIndexed once per activated lane. A ReplayIndex is
// not safe for concurrent Build, but concurrent reads (replays on worker
// solvers) are safe once built.
type ReplayIndex struct {
	tab *Tables

	// epoch versions the stamp arrays so Build never clears them.
	epoch uint32
	// words is the lane-word count of the current build; traj/rounds the
	// indexed trajectory.
	words  int
	traj   *Trajectory
	rounds int

	// Per-round member→vicinity maps: vicOf[r][n] is valid when
	// vicStamp[r][n] == epoch.
	vicOf    [][]int32
	vicStamp [][]uint32
	// flags[r][w*nvic+vi] is the word of lanes for which the vi-th of
	// round r's nvic vicinities is statically flagged (must be solved, not
	// adopted). The layout is word-major: the probes of one lane — the hot
	// reader, SettleReplayIndexed — stay within its word's stretch.
	flags [][]uint64

	// Static-divergence overlay accumulated by the closure: lanes marked
	// diverged at a node by earlier (or same-round) flagged vicinities,
	// beyond the caller's div rows. Row n is valid when extraStamp[n]
	// matches epoch.
	extra      []uint64
	extraStamp []uint32

	// Build scratch: per-word member OR and newly-flagged masks.
	orBuf, newBuf []uint64
}

// NewReplayIndex returns an empty index over tab's network.
func NewReplayIndex(tab *Tables) *ReplayIndex {
	n := tab.Net.NumNodes()
	return &ReplayIndex{
		tab:        tab,
		extraStamp: make([]uint32, n),
	}
}

// Build indexes traj for a lane group of the given word count. div holds
// the callers' static divergence sets as word-packed per-node rows of
// stride words (div[n*words : (n+1)*words]); it is read during Build only.
// divNZ, when non-nil, is a per-node count of nonzero words in the row
// (any summary where divNZ[n] == 0 implies an all-zero row is accepted):
// divergence rows are overwhelmingly zero, and the summary lets Build skip
// them with one load per member instead of a words-long OR.
//
// The static flag closure, lane-wise: a vicinity is flagged for every lane
// with a diverged member, a flagged vicinity's unfollowed changes mark
// their nodes and the channel terminals of transistors they gate as
// diverged for those lanes, marks poison downstream vicinities of the same
// round (repeat until stable) and persist into all later rounds.
func (ix *ReplayIndex) Build(traj *Trajectory, words int, div []uint64, divNZ []int32) {
	ix.epoch++
	ix.words = words
	ix.traj = traj
	ix.rounds = traj.NumRounds()
	n := ix.tab.Net.NumNodes()

	for len(ix.vicOf) < ix.rounds {
		ix.vicOf = append(ix.vicOf, make([]int32, n))
		ix.vicStamp = append(ix.vicStamp, make([]uint32, n))
		ix.flags = append(ix.flags, nil)
	}
	if len(ix.extra) < n*words {
		ix.extra = make([]uint64, n*words)
		// Rows are epoch-guarded; a fresh array needs no clearing, but the
		// stamps must not accidentally match a stale epoch row layout.
		for i := range ix.extraStamp {
			ix.extraStamp[i] = 0
		}
	}
	if len(ix.orBuf) < words {
		ix.orBuf = make([]uint64, words)
		ix.newBuf = make([]uint64, words)
	}
	orBuf, newBuf := ix.orBuf[:words], ix.newBuf[:words]

	for r := 0; r < ix.rounds; r++ {
		vlo, vhi := traj.RoundSpan(r)
		nvic := vhi - vlo
		vicOf, vicStamp := ix.vicOf[r], ix.vicStamp[r]
		need := nvic * words
		if cap(ix.flags[r]) < need {
			ix.flags[r] = make([]uint64, need+need/2)
		}
		flags := ix.flags[r][:need]
		for i := range flags {
			flags[i] = 0
		}
		for vi := vlo; vi < vhi; vi++ {
			for _, u := range traj.Members(vi) {
				vicOf[u] = int32(vi - vlo)
				vicStamp[u] = ix.epoch
			}
		}
		// Flag closure: the first sweep both computes initial flags and,
		// by marking as it goes, lets later vicinities of the round see
		// earlier marks; further sweeps run only until no new lane flags
		// appear (the within-round fixpoint).
		for again := true; again; {
			again = false
			for vi := vlo; vi < vhi; vi++ {
				for w := range orBuf {
					orBuf[w] = 0
				}
				for _, u := range traj.Members(vi) {
					hasDiv := divNZ == nil || divNZ[u] != 0
					hasExtra := ix.extraStamp[u] == ix.epoch
					if !hasDiv && !hasExtra {
						continue
					}
					if hasDiv {
						row := div[int(u)*words:]
						for w := range orBuf {
							orBuf[w] |= row[w]
						}
					}
					if hasExtra {
						er := ix.extra[int(u)*words:]
						for w := range orBuf {
							orBuf[w] |= er[w]
						}
					}
				}
				anyNew := false
				for w := range orBuf {
					fw := &flags[w*nvic+vi-vlo]
					newBuf[w] = orBuf[w] &^ *fw
					if newBuf[w] != 0 {
						*fw |= newBuf[w]
						anyNew = true
					}
				}
				if !anyNew {
					continue
				}
				again = true
				// Newly flagged lanes will not follow this vicinity's
				// changes: mark the change sites, and the channel terminals
				// of the transistors they gate, diverged for those lanes.
				for _, ch := range traj.Changes(vi) {
					ix.markLanes(ch.Node, newBuf)
					for _, e := range ix.tab.GatedByOf(ch.Node) {
						ix.markLanes(e.Src, newBuf)
						ix.markLanes(e.Drn, newBuf)
					}
				}
			}
		}
	}
}

// markLanes ORs the lane mask into node u's overlay row.
func (ix *ReplayIndex) markLanes(u netlist.NodeID, m []uint64) {
	row := ix.extra[int(u)*ix.words:]
	if ix.extraStamp[u] != ix.epoch {
		ix.extraStamp[u] = ix.epoch
		copy(row[:len(m)], m)
		return
	}
	for w := range m {
		row[w] |= m[w]
	}
}

// Builds returns how many times Build has run on this index. Exported for
// tests.
func (ix *ReplayIndex) Builds() int { return int(ix.epoch) }
