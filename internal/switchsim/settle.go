package switchsim

import (
	"math/bits"
	"slices"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// SettleResult reports the outcome of one steady-state settling.
//
// Changed and Explored reference solver-owned scratch storage and are
// valid only until the next Settle/Step call on the same Solver; callers
// that need them longer must copy.
type SettleResult struct {
	// Rounds is the number of unit-delay rounds performed.
	Rounds int
	// Oscillated reports that the round limit was hit and oscillating
	// nodes were resolved upward to X.
	Oscillated bool
	// Changed lists storage nodes whose value changed at least once
	// during the settle, deduplicated.
	Changed []netlist.NodeID
	// Explored lists every storage node that was a member of any solved
	// vicinity during the settle (a superset of Changed).
	Explored []netlist.NodeID
}

// defaultMaxRounds bounds normal settling; a legitimate circuit settles in
// a number of rounds on the order of its sequential depth.
func (s *Solver) defaultMaxRounds() int {
	n := s.tab.Net.NumNodes()
	if n < 64 {
		return 64
	}
	return 64 + n
}

// Change records one node's new value at a given settling round.
type Change struct {
	Node  netlist.NodeID
	Value logic.Value
}

// Trajectory is a full settling history: the solved vicinities of each
// round, in order, each with its member nodes and the changes it produced.
// It is the "good circuit script" the concurrent simulator's
// faulty-circuit replays follow. Vicinities are numbered across the whole
// trajectory; RoundSpan gives a round's range.
//
// The members and the changes are two flat lists, back to back in solve
// order (Lists). Where one vicinity's lists end is held in bits, read in
// order (vicReader): each vicinity writes one 0 per member, a closing 1,
// one 0 per change and a closing 1, so its boundaries cost two bits and a
// vicinity without members or changes is held like any other. Random access to a vicinity's lists is
// the replay walk's alone: ReplayIndex.Build reads them in order and keeps
// every vicinity's list starts in its own scratch. The round table holds,
// per round, the vicinity, member and change counts up to its end. Bits
// and table share one pointer-free slab, so a held trajectory is four
// allocations whatever its vicinity count, and read-only: a Recording
// holds one for every step that settles the same way. A solver's Traj is
// reused scratch: valid only until the next recording Settle on the same
// Solver.
type Trajectory struct {
	nodes   []netlist.NodeID // member lists, back to back
	changes []Change         // change lists, back to back
	// tab[:bitWords] holds the boundary bits, 32 a word from bit 0 up;
	// tab[bitWords:] is the round table, three words a round: vicinities,
	// members and changes up to the round's end.
	tab      []uint32
	bitWords uint32
	// vics, memberEnd and changeEnd count what the closed vicinities hold;
	// the boundary bits in use are memberEnd+changeEnd+2*vics.
	vics, memberEnd, changeEnd uint32
}

// NumRounds returns the number of recorded rounds.
func (tr *Trajectory) NumRounds() int { return (len(tr.tab) - int(tr.bitWords)) / 3 }

// roundEnd returns the vicinity, member and change counts up to the end of
// round r; all zero for r = -1.
func (tr *Trajectory) roundEnd(r int) (vics, members, changes uint32) {
	if r < 0 {
		return 0, 0, 0
	}
	e := tr.tab[int(tr.bitWords)+3*r:]
	return e[0], e[1], e[2]
}

// RoundSpan returns the vicinity range [lo, hi) of round r.
func (tr *Trajectory) RoundSpan(r int) (lo, hi int) {
	l, _, _ := tr.roundEnd(r - 1)
	h, _, _ := tr.roundEnd(r)
	return int(l), int(h)
}

// roundChanges returns the changes of round r in solve order.
func (tr *Trajectory) roundChanges(r int) []Change {
	_, _, lo := tr.roundEnd(r - 1)
	_, _, hi := tr.roundEnd(r)
	return tr.changes[lo:hi]
}

// Lists returns all members and all changes in solve order (none for a nil
// trajectory). With repeats removed they are the recording settle's Explored
// and Changed, a node's last change holding its post-step value.
func (tr *Trajectory) Lists() ([]netlist.NodeID, []Change) {
	if tr == nil {
		return nil, nil
	}
	return tr.nodes, tr.changes
}

// reset empties the trajectory, keeping its storage. Only the bit words
// that were written are cleared: the rest are still zero.
func (tr *Trajectory) reset() {
	clear(tr.bitsInUse())
	tr.tab = tr.tab[:tr.bitWords]
	tr.nodes, tr.changes = tr.nodes[:0], tr.changes[:0]
	tr.vics, tr.memberEnd, tr.changeEnd = 0, 0, 0
}

// endVicinity closes the vicinity whose members and changes were just
// appended; endRound closes the round.
func (tr *Trajectory) endVicinity() {
	m, c := uint32(len(tr.nodes)), uint32(len(tr.changes))
	tr.setBit(m + tr.changeEnd + 2*tr.vics)
	tr.setBit(m + c + 2*tr.vics + 1)
	tr.vics, tr.memberEnd, tr.changeEnd = tr.vics+1, m, c
}

func (tr *Trajectory) endRound() {
	tr.tab = append(tr.tab, tr.vics, tr.memberEnd, tr.changeEnd)
}

// setBit sets boundary bit i, first doubling the bit words (and moving the
// round table up) if they are too few.
func (tr *Trajectory) setBit(i uint32) {
	w := i / 32
	if w >= tr.bitWords {
		n := max(2*tr.bitWords, w+1)
		tab := make([]uint32, n, int(n)+len(tr.tab)-int(tr.bitWords)+3)
		copy(tab, tr.tab[:tr.bitWords])
		tr.tab, tr.bitWords = append(tab, tr.tab[tr.bitWords:]...), n
	}
	tr.tab[w] |= 1 << (i % 32)
}

// bitsInUse returns the words holding the closed vicinities' boundary
// bits; the bits past the last one in use are zero.
func (tr *Trajectory) bitsInUse() []uint32 {
	return tr.tab[:(tr.memberEnd+tr.changeEnd+2*tr.vics+31)/32]
}

// roundTable returns the round table: per round, the vicinity, member and
// change counts up to its end.
func (tr *Trajectory) roundTable() []uint32 { return tr.tab[tr.bitWords:] }

// held returns an exact-size copy of the trajectory.
func (tr *Trajectory) held() *Trajectory {
	bw, rounds := tr.bitsInUse(), tr.roundTable()
	tab := make([]uint32, len(bw)+len(rounds))
	copy(tab[copy(tab, bw):], rounds)
	h := *tr
	h.nodes, h.changes, h.tab, h.bitWords = cloneOrNil(tr.nodes), cloneOrNil(tr.changes), tab, uint32(len(bw))
	return &h
}

// sameContent reports whether tr and o hold the same trajectory: the same
// member and change lists, split into the same vicinities (boundary bits)
// and rounds (round table). Where their slabs put the round table does
// not matter.
func (tr *Trajectory) sameContent(o *Trajectory) bool {
	return tr.vics == o.vics && tr.memberEnd == o.memberEnd && tr.changeEnd == o.changeEnd &&
		slices.Equal(tr.nodes, o.nodes) && slices.Equal(tr.changes, o.changes) &&
		slices.Equal(tr.bitsInUse(), o.bitsInUse()) && slices.Equal(tr.roundTable(), o.roundTable())
}

// contentHash hashes what sameContent compares, a word at a time.
func (tr *Trajectory) contentHash() uint64 {
	const k = 0x9e3779b97f4a7c15
	mix := func(h, w uint64) uint64 { return bits.RotateLeft64((h^w)*k, 29) }
	h := mix(mix(uint64(tr.vics), uint64(tr.memberEnd)), uint64(tr.changeEnd))
	for _, n := range tr.nodes {
		h = mix(h, uint64(n))
	}
	for _, c := range tr.changes {
		h = mix(h, uint64(c.Node)<<8|uint64(c.Value))
	}
	for _, w := range tr.bitsInUse() {
		h = mix(h, uint64(w))
	}
	for _, w := range tr.roundTable() {
		h = mix(h, uint64(w))
	}
	return h
}

// vicReader reads a trajectory's vicinities in solve order.
type vicReader struct {
	tr *Trajectory
	// bit is the next vicinity's first boundary bit; m and c are where its
	// member and change lists start.
	bit, m, c uint32
}

// next returns the next vicinity's members and changes.
func (vr *vicReader) next() ([]netlist.NodeID, []Change) {
	var m, c uint32
	if x := vr.tr.tab[vr.bit/32] >> (vr.bit % 32); x&(x-1) != 0 {
		// Both closing bits lie in this word, as they do for most
		// vicinities: one or two members, rarely a change.
		z := uint32(bits.TrailingZeros32(x))
		m = vr.bit + z
		c = m + 1 + uint32(bits.TrailingZeros32(x>>(z+1)))
	} else {
		m = vr.tr.nextOne(vr.bit)
		c = vr.tr.nextOne(m + 1)
	}
	nm, nc := m-vr.bit, c-m-1
	members, changes := vr.tr.nodes[vr.m:vr.m+nm], vr.tr.changes[vr.c:vr.c+nc]
	vr.bit, vr.m, vr.c = c+1, vr.m+nm, vr.c+nc
	return members, changes
}

// nextOne returns the position of the first set boundary bit at or after i.
func (tr *Trajectory) nextOne(i uint32) uint32 {
	w := i / 32
	x := tr.tab[w] >> (i % 32) << (i % 32)
	for x == 0 {
		w++
		x = tr.tab[w]
	}
	return w*32 + uint32(bits.TrailingZeros32(x))
}

// Settle drives the circuit to a steady state starting from the given
// perturbed storage nodes, per the paper's scheduling: the simulation of a
// vicinity causes nodes to change state, and activities are scheduled for
// the vicinities affected by those changes (through the gates of
// transistors). If the round limit is exceeded, the solver switches to
// oscillation mode, where node updates are joined with their old value in
// the information ordering so oscillating nodes resolve monotonically to X.
//
// When s.Record is true, the solver additionally appends the full
// per-round trajectory to s.Traj (reset at each Settle). Settle is
// SettleReplayIndexed with no index: the same loop, solving every pending
// vicinity.
func (s *Solver) Settle(c *Circuit, seeds []netlist.NodeID) SettleResult {
	return s.SettleReplayIndexed(c, seeds, nil, 0, 0)
}

// propagate switches the transistors gated by changed node u and schedules
// the perturbed channel terminals into the next round's pending set.
func (s *Solver) propagate(c *Circuit, u netlist.NodeID) {
	gv := c.val[u]
	for _, e := range s.tab.GatedByOf(u) {
		ns := logic.SwitchState(e.Typ, gv)
		if p := c.pinTrans[e.T]; p != unpinned {
			ns = logic.Value(p)
		}
		if ns == c.ts[e.T] {
			continue
		}
		c.ts[e.T] = ns
		for _, w := range [2]netlist.NodeID{e.Src, e.Drn} {
			if c.IsInputLike(w) || s.pendStamp[w] == s.pendEpoch {
				continue
			}
			s.pendStamp[w] = s.pendEpoch
			s.next = append(s.next, w)
		}
	}
}

// vicNewVal returns the reusable new-value buffer sized to the current
// vicinity.
func (s *Solver) vicNewVal() []logic.Value {
	if cap(s.newVal) < len(s.vic) {
		s.newVal = make([]logic.Value, len(s.vic)*2)
	}
	s.newVal = s.newVal[:len(s.vic)]
	return s.newVal
}

func (s *Solver) noteChanged(n netlist.NodeID) {
	if s.changedStamp[n] != s.changedEpoch {
		s.changedStamp[n] = s.changedEpoch
		s.changed = append(s.changed, n)
	}
}

// ApplySetting assigns the input values of one setting and returns the
// union of the perturbed storage nodes (unsettled). The returned slice is
// solver-owned scratch, valid until the next ApplySetting on this Solver.
func (s *Solver) ApplySetting(c *Circuit, setting Setting) []netlist.NodeID {
	seeds := s.seedBuf[:0]
	for _, a := range setting {
		seeds = append(seeds, c.SetInput(a.Node, a.Value)...)
	}
	s.seedBuf = seeds
	return seeds
}

// Step applies one input setting and settles the circuit.
func (s *Solver) Step(c *Circuit, setting Setting) SettleResult {
	return s.Settle(c, s.ApplySetting(c, setting))
}

// SettleAll settles the whole network: every storage node is treated as
// perturbed. Used after reset or fault injection.
func (s *Solver) SettleAll(c *Circuit) SettleResult {
	seeds := make([]netlist.NodeID, 0, s.tab.Net.NumNodes())
	for i := 0; i < s.tab.Net.NumNodes(); i++ {
		n := netlist.NodeID(i)
		if !c.IsInputLike(n) {
			seeds = append(seeds, n)
		}
	}
	return s.Settle(c, seeds)
}

// Init resets the circuit to declared initial states and settles it fully.
func (s *Solver) Init(c *Circuit) SettleResult {
	c.Reset()
	return s.SettleAll(c)
}
