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
// whichever lanes share a word.
//
// SettleReplayIndexed then replays one lane against the prebuilt index:
// a static flag is one bit probe, made only for the vicinities the lane's
// wave or divergence touches, and only the lane's own dynamic divergence
// (members of vicinities it solves, and their gated terminals) is
// rescanned per round — cost ∝ the lane's activity and divergence, with
// the trajectory-sized work shared across the whole word group.
//
// Compile shares one thing more: the good circuit's own wave through the
// leading rounds, which every lane still in step with it would otherwise
// re-walk seed by seed. It is walked once, as deep as some active lane can
// follow, and such a lane applies its writes and flips in two loops and
// resumes at the round where it first has something of its own to do.
package switchsim

import (
	"slices"

	"fmossim/internal/logic"
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

	// epoch versions the stamp arrays so Build never clears them. It
	// counts for the index's lifetime, ResetStats included: a row stamped
	// by an earlier build must never read as current. builds counts the
	// Builds since ResetStats.
	epoch  uint32
	builds int
	// words is the lane-word count of the current build; traj/rounds the
	// indexed trajectory.
	words  int
	traj   *Trajectory
	rounds int

	// Per-round member→vicinity maps, one word per node so that a pend seed
	// is classified with one load: vicMap[r][n] is epoch<<32 | vi<<1 |
	// hasChanges, valid when its high half equals epoch; vi is the
	// round-local index of the vicinity holding n, and hasChanges says
	// whether that vicinity changed any node (four adoptions in five on the
	// RAM workloads change nothing and never look at the change list).
	vicMap [][]uint64
	// flags[r][w*nvic+vi] is the word of lanes for which the vi-th of
	// round r's nvic vicinities is statically flagged (must be solved, not
	// adopted). The layout is word-major: the probes of one lane — the hot
	// reader, SettleReplayIndexed — stay within its word's stretch.
	flags [][]uint64
	// roundAny[r*words+w] is the OR of round r's flag words: the lanes for
	// which some vicinity of the round is flagged. A lane whose bit is
	// clear adopts the whole round (see Compile).
	roundAny []uint64
	// spans[2*vi] and spans[2*vi+1] are where vicinity vi's member and
	// change lists start in the trajectory's flat lists, for every vicinity
	// and one past the last. The trajectory holds its vicinity boundaries
	// as bits, readable in order only; Build reads them as it visits each
	// vicinity, and the walk reads a vicinity's lists through these starts
	// (members, changes).
	spans []uint32

	wave compiledWave

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
	ix.builds++
	ix.words = words
	ix.traj = traj
	ix.rounds = traj.NumRounds()
	n := ix.tab.Net.NumNodes()

	ix.wave.depth = 0 // nothing compiled for this trajectory yet

	for len(ix.vicMap) < ix.rounds {
		ix.vicMap = append(ix.vicMap, make([]uint64, n))
		ix.flags = append(ix.flags, nil)
	}
	if need := ix.rounds * words; cap(ix.roundAny) < need {
		ix.roundAny = make([]uint64, need+need/2)
	}
	ix.roundAny = ix.roundAny[:ix.rounds*words]
	clear(ix.roundAny)
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

	_, nv := traj.RoundSpan(ix.rounds - 1)
	if need := 2 * (nv + 1); cap(ix.spans) < need {
		ix.spans = make([]uint32, 0, need)
	}
	vr := vicReader{tr: traj}
	ix.spans = append(ix.spans[:0], 0, 0)
	for r := 0; r < ix.rounds; r++ {
		vlo, vhi := traj.RoundSpan(r)
		nvic := vhi - vlo
		vicMap, roundAny := ix.vicMap[r], ix.roundAny[r*words:(r+1)*words]
		need := nvic * words
		if cap(ix.flags[r]) < need {
			ix.flags[r] = make([]uint64, need+need/2)
		}
		flags := ix.flags[r][:need]
		for i := range flags {
			flags[i] = 0
		}
		for vi := vlo; vi < vhi; vi++ {
			members, changes := vr.next()
			ix.spans = append(ix.spans, vr.m, vr.c)
			m := uint64(ix.epoch)<<32 | uint64(vi-vlo)<<1
			if len(changes) > 0 {
				m |= 1
			}
			for _, u := range members {
				vicMap[u] = m
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
				for _, u := range ix.members(vi) {
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
						roundAny[w] |= newBuf[w]
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
				for _, ch := range ix.changes(vi) {
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

// members returns the member nodes of vicinity vi of the trajectory last
// Built.
func (ix *ReplayIndex) members(vi int) []netlist.NodeID {
	return ix.traj.nodes[ix.spans[2*vi]:ix.spans[2*vi+2]]
}

// changes returns the changes vicinity vi of the trajectory last Built
// produced.
func (ix *ReplayIndex) changes(vi int) []Change {
	return ix.traj.changes[ix.spans[2*vi+1]:ix.spans[2*vi+3]]
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

// Builds returns how many times Build has run on this index since it was
// made or its counters were last reset.
func (ix *ReplayIndex) Builds() int { return ix.builds }

// compiledWave is the good circuit's own wave through the leading rounds
// of the indexed trajectory, walked once by Compile for every lane of the
// setting: the pend queue at the start of each round and the switch flips
// each round makes. The value writes need no copy — they are the
// trajectory's change list — and the adoption counts are its vicinity and
// change counts.
type compiledWave struct {
	// depth is the number of compiled rounds; zero after every Build until
	// Compile runs, so an index that was only Built fast-forwards nothing.
	depth int
	// pend[pendEnd[r-1]:pendEnd[r]] is P_r, the good circuit's pend queue
	// at the start of round r, for r in [0, depth].
	pend    []netlist.NodeID
	pendEnd []uint32
	// flips[flipEnd[r-1]:flipEnd[r]] are round r's switch flips in order,
	// for r in [0, depth).
	flips   []waveFlip
	flipEnd []uint32

	// val overlays the pre-step state with the wave's writes so far:
	// val[n] is valid when valStamp[n] == epoch. pendStamp dedups the
	// pushes of one round, as Solver.pendStamp does.
	val       []logic.Value
	valStamp  []uint32
	epoch     uint32
	pendStamp []uint32
	pendEpoch uint32

	alive    []uint64 // lanes still in lockstep at the round being compiled
	compiles int64
}

// waveFlip is one transistor's new conduction state.
type waveFlip struct {
	t  netlist.TransID
	st logic.Value
}

// value returns node n's state in the wave: the overlay if the wave wrote
// n, the pre-step state otherwise.
func (wv *compiledWave) value(pre *Circuit, n netlist.NodeID) logic.Value {
	if wv.valStamp[n] == wv.epoch {
		return wv.val[n]
	}
	return pre.val[n]
}

func (wv *compiledWave) write(n netlist.NodeID, v logic.Value) {
	wv.valStamp[n] = wv.epoch
	wv.val[n] = v
}

// push appends storage node n to the pend list being built, once.
func (wv *compiledWave) push(tab *Tables, n netlist.NodeID) {
	if tab.isInput[n] || wv.pendStamp[n] == wv.pendEpoch {
		return
	}
	wv.pendStamp[n] = wv.pendEpoch
	wv.pend = append(wv.pend, n)
}

// Compile walks the good circuit's own wave through the leading rounds of
// the trajectory last Built, so that every lane in lockstep with it can
// skip them (see SettleReplayIndexed, "Riding the good wave"). pre is the
// fault-free pre-step state and is only read; setting and extraSeeds are
// what each lane's replay is seeded from (the reduced setting, or the
// storage nodes of the initialization step); active has the bits of the
// lanes about to replay, in Build's word layout.
//
// The walk is the one a lane with no divergence would make: the seeds of
// ApplySetting deduplicated in order, every change of every vicinity
// written unless the node already holds the value, every transistor whose
// state the write changes flipped and its storage terminals pushed once
// per round. It runs on an overlay of pre — the good circuit carries no
// pins, so a transistor's state is a function of its gate's value — and
// therefore has no mirror to keep in step and nothing to undo.
//
// It goes only as deep as some active lane can follow: round r is compiled
// while a lane remains whose roundAny bits are clear for rounds 0..r, and
// nothing is compiled (not even the seeds) when every active lane is
// flagged in round 0.
func (ix *ReplayIndex) Compile(pre *Circuit, setting Setting, extraSeeds []netlist.NodeID, active []uint64) {
	wv, tab, traj, words := &ix.wave, ix.tab, ix.traj, ix.words
	wv.depth = 0
	if ix.rounds == 0 {
		return
	}
	wv.alive = append(wv.alive[:0], active[:words]...)
	if !wv.stillAlive(ix.roundAny[:words]) {
		return
	}
	if wv.val == nil {
		n := tab.Net.NumNodes()
		wv.val = make([]logic.Value, n)
		wv.valStamp = make([]uint32, n)
		wv.pendStamp = make([]uint32, n)
	}
	wv.compiles++
	wv.epoch++
	wv.pendEpoch++
	wv.pend, wv.pendEnd = wv.pend[:0], wv.pendEnd[:0]
	wv.flips, wv.flipEnd = wv.flips[:0], wv.flipEnd[:0]

	// P_0: the good circuit's response to the setting, as ApplySetting and
	// the settle's seed dedup produce it.
	nw := tab.Net
	for _, a := range setting {
		old := wv.value(pre, a.Node)
		if old == a.Value {
			continue
		}
		wv.write(a.Node, a.Value)
		for _, e := range tab.GatedByOf(a.Node) {
			if logic.SwitchState(e.Typ, a.Value) != logic.SwitchState(e.Typ, old) {
				wv.push(tab, e.Src)
				wv.push(tab, e.Drn)
			}
		}
		for _, e := range tab.ChannelOf(a.Node) {
			tr := nw.Transistor(e.T)
			if logic.SwitchState(tr.Type, wv.value(pre, tr.Gate)) != logic.Lo {
				wv.push(tab, e.Other)
			}
		}
	}
	if setting == nil {
		for _, n := range extraSeeds {
			wv.push(tab, n)
		}
	}
	wv.pendEnd = append(wv.pendEnd, uint32(len(wv.pend)))

	for r := 0; ; {
		wv.pendEpoch++
		for _, ch := range traj.roundChanges(r) {
			old := wv.value(pre, ch.Node)
			if ch.Value == old {
				continue
			}
			wv.write(ch.Node, ch.Value)
			for _, e := range tab.GatedByOf(ch.Node) {
				ns := logic.SwitchState(e.Typ, ch.Value)
				if ns == logic.SwitchState(e.Typ, old) {
					continue
				}
				wv.flips = append(wv.flips, waveFlip{e.T, ns})
				wv.push(tab, e.Src)
				wv.push(tab, e.Drn)
			}
		}
		wv.flipEnd = append(wv.flipEnd, uint32(len(wv.flips)))
		wv.pendEnd = append(wv.pendEnd, uint32(len(wv.pend)))
		r++
		wv.depth = r
		if r == ix.rounds || !wv.stillAlive(ix.roundAny[r*words:(r+1)*words]) {
			return
		}
	}
}

// stillAlive drops the lanes flagged in a round from the lockstep set and
// reports whether any remain.
func (wv *compiledWave) stillAlive(roundAny []uint64) bool {
	left := uint64(0)
	for w := range wv.alive {
		wv.alive[w] &^= roundAny[w]
		left |= wv.alive[w]
	}
	return left != 0
}

// pendAt returns P_r for r in [0, depth].
func (wv *compiledWave) pendAt(r int) []netlist.NodeID {
	lo := uint32(0)
	if r > 0 {
		lo = wv.pendEnd[r-1]
	}
	return wv.pend[lo:wv.pendEnd[r]]
}

// sharedRounds returns how many leading rounds the lane (word, bit) of
// circuit c, whose deduplicated seeds are pend, provably shares with the
// good circuit: zero unless its seeds are P_0, and then the rounds before
// the first one that flags a vicinity for the lane, flips a transistor c
// pins, or lies past maxRounds.
func (ix *ReplayIndex) sharedRounds(c *Circuit, pend []netlist.NodeID, word int, bit uint, maxRounds int) int {
	wv := &ix.wave
	k := 0
	for k < wv.depth && ix.roundAny[k*ix.words+word]>>bit&1 == 0 {
		k++
	}
	if k > maxRounds {
		k = maxRounds
	}
	if k == 0 || !slices.Equal(pend, wv.pendAt(0)) {
		return 0
	}
	if c.nPins > 0 {
		// The good circuit flips the pinned transistor and perturbs its
		// terminals; the lane does neither, and from that round on its
		// pend queue is its own.
		lo := uint32(0)
		for r := 0; r < k; r++ {
			hi := wv.flipEnd[r]
			for _, f := range wv.flips[lo:hi] {
				if c.pinTrans[f.t] != unpinned {
					return r
				}
			}
			lo = hi
		}
	}
	return k
}

// Compiles returns how many good waves this index has compiled since it
// was made or its counters were last reset.
func (ix *ReplayIndex) Compiles() int64 { return ix.wave.compiles }

// ResetStats zeroes the Builds and Compiles counters, for an owner that
// re-arms the index for a new lane group (core.FaultBatch.Reset). The
// stamp epoch keeps counting.
func (ix *ReplayIndex) ResetStats() { ix.builds, ix.wave.compiles = 0, 0 }
