package switchsim

import (
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

// vicSpan closes one solved vicinity of a trajectory: the ends of its
// member and change lists in the trajectory's flat arrays (each list starts
// where the previous vicinity's ended).
type vicSpan struct {
	memberEnd, changeEnd uint32
}

// Trajectory is a full settling history: the solved vicinities of each
// round, in order, each with its member nodes and the changes it produced.
// It is the "good circuit script" the concurrent simulator's
// faulty-circuit replays follow. Vicinities are numbered across the whole
// trajectory; RoundSpan gives a round's range. The storage is four flat,
// pointer-free arrays, so a trajectory costs the same handful of
// allocations whatever its vicinity count. A solver's Traj is reused
// scratch: valid only until the next recording Settle on the same Solver.
type Trajectory struct {
	roundEnd []uint32 // roundEnd[r]: one past round r's last vicinity
	vics     []vicSpan
	nodes    []netlist.NodeID // member lists, back to back
	changes  []Change         // change lists, back to back
}

// NumRounds returns the number of recorded rounds.
func (tr *Trajectory) NumRounds() int { return len(tr.roundEnd) }

// RoundSpan returns the vicinity range [lo, hi) of round r.
func (tr *Trajectory) RoundSpan(r int) (lo, hi int) {
	if r > 0 {
		lo = int(tr.roundEnd[r-1])
	}
	return lo, int(tr.roundEnd[r])
}

// Members returns the member nodes of vicinity vi.
func (tr *Trajectory) Members(vi int) []netlist.NodeID {
	lo := uint32(0)
	if vi > 0 {
		lo = tr.vics[vi-1].memberEnd
	}
	return tr.nodes[lo:tr.vics[vi].memberEnd]
}

// Changes returns the changes vicinity vi produced.
func (tr *Trajectory) Changes(vi int) []Change {
	return tr.changes[tr.changesBefore(vi):tr.vics[vi].changeEnd]
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

// changesBefore returns how many changes the vicinities before vi produced:
// the start of vi's change list, and the end of the list of everything
// before it.
func (tr *Trajectory) changesBefore(vi int) uint32 {
	if vi == 0 {
		return 0
	}
	return tr.vics[vi-1].changeEnd
}

func (tr *Trajectory) reset() {
	tr.roundEnd, tr.vics, tr.nodes, tr.changes = tr.roundEnd[:0], tr.vics[:0], tr.nodes[:0], tr.changes[:0]
}

// endVicinity closes the vicinity whose members and changes were just
// appended; endRound closes the round.
func (tr *Trajectory) endVicinity() {
	tr.vics = append(tr.vics, vicSpan{uint32(len(tr.nodes)), uint32(len(tr.changes))})
}

func (tr *Trajectory) endRound() {
	tr.roundEnd = append(tr.roundEnd, uint32(len(tr.vics)))
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
