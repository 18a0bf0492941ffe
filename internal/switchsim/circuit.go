package switchsim

import (
	"fmt"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// Tables holds per-network constant lookups shared by all circuits over
// the same network: the strength-scale positions of node charges and
// transistor drives, plus flat CSR adjacency so the settling kernels walk
// contiguous edge records instead of chasing netlist structs.
type Tables struct {
	Net *netlist.Network
	// Charge[n] is the charge strength κ of storage node n, or ω for an
	// input node.
	Charge []logic.Strength
	// Drive[t] is the drive strength γ of transistor t.
	Drive []logic.Strength

	// isInput[n] reports a declared input node (ω source).
	isInput []bool

	// Channel adjacency: for node n, chanEdges[chanOff[n]:chanOff[n+1]]
	// lists the transistors on whose channel n lies, with the opposite
	// terminal and the drive strength inlined.
	chanOff   []int32
	chanEdges []ChanEdge
	// Gate adjacency: for node n, gateEdges[gateOff[n]:gateOff[n+1]]
	// lists the transistors gated by n, with type and both channel
	// terminals inlined.
	gateOff   []int32
	gateEdges []GateEdge
}

// ChanEdge is one flattened channel-adjacency record.
type ChanEdge struct {
	T     netlist.TransID
	Other netlist.NodeID
	Drive logic.Strength
}

// GateEdge is one flattened gate-adjacency record.
type GateEdge struct {
	T        netlist.TransID
	Src, Drn netlist.NodeID
	Typ      logic.TransistorType
}

// NewTables precomputes strength tables for a finalized network.
func NewTables(nw *netlist.Network) *Tables {
	if !nw.Finalized() {
		panic("switchsim: network not finalized")
	}
	tab := &Tables{
		Net:     nw,
		Charge:  make([]logic.Strength, nw.NumNodes()),
		Drive:   make([]logic.Strength, nw.NumTransistors()),
		isInput: make([]bool, nw.NumNodes()),
		chanOff: make([]int32, nw.NumNodes()+1),
		gateOff: make([]int32, nw.NumNodes()+1),
	}
	for i := 0; i < nw.NumNodes(); i++ {
		tab.Charge[i] = nw.ChargeStrength(netlist.NodeID(i))
		tab.isInput[i] = nw.Node(netlist.NodeID(i)).Kind == netlist.Input
	}
	for i := 0; i < nw.NumTransistors(); i++ {
		tab.Drive[i] = nw.DriveStrength(netlist.TransID(i))
	}
	for i := 0; i < nw.NumNodes(); i++ {
		n := netlist.NodeID(i)
		for _, t := range nw.Channel(n) {
			tab.chanEdges = append(tab.chanEdges, ChanEdge{
				T:     t,
				Other: nw.Transistor(t).Other(n),
				Drive: tab.Drive[t],
			})
		}
		tab.chanOff[i+1] = int32(len(tab.chanEdges))
		for _, t := range nw.GatedBy(n) {
			tr := nw.Transistor(t)
			tab.gateEdges = append(tab.gateEdges, GateEdge{
				T:   t,
				Src: tr.Source,
				Drn: tr.Drain,
				Typ: tr.Type,
			})
		}
		tab.gateOff[i+1] = int32(len(tab.gateEdges))
	}
	return tab
}

// ChannelOf returns node n's flattened channel adjacency.
func (tab *Tables) ChannelOf(n netlist.NodeID) []ChanEdge {
	return tab.chanEdges[tab.chanOff[n]:tab.chanOff[n+1]]
}

// GatedByOf returns node n's flattened gate adjacency.
func (tab *Tables) GatedByOf(n netlist.NodeID) []GateEdge {
	return tab.gateEdges[tab.gateOff[n]:tab.gateOff[n+1]]
}

// IsInput reports whether n is a declared input node.
func (tab *Tables) IsInput(n netlist.NodeID) bool { return tab.isInput[n] }

const (
	unpinned = int8(-1)
	unforced = int8(-1)
)

// Circuit is the dynamic state of one circuit instance (good or faulty):
// node values, transistor conduction states, and the fault pins applied to
// this instance. Multiple Circuits may share one Tables.
type Circuit struct {
	Tab *Tables

	// val[n] is the current state of node n.
	val []logic.Value
	// ts[t] is the current conduction state of transistor t.
	ts []logic.Value

	// pinTrans[t] pins transistor t's conduction state (stuck-open = 0,
	// stuck-closed = 1), or unpinned. Per the paper, a transistor fault
	// leaves the strength unchanged.
	pinTrans []int8
	// forceNode[n] makes node n behave as an input node set to the given
	// state (node stuck-at faults), or unforced.
	forceNode []int8
	// nPins/nForces track whether any pins exist, to fast-path the good
	// circuit.
	nPins, nForces int

	// inputLike[n] caches forceNode[n] != unforced || declared-input:
	// the settling kernels test it once per edge walk.
	inputLike []bool

	// seedBuf is the reusable perturbation buffer returned by SetInput,
	// ForceNode, PinTransistor and friends: valid until the next mutating
	// call on this circuit.
	seedBuf []netlist.NodeID
}

// NewCircuit allocates a circuit over the given tables with all nodes at
// their declared initial states.
func NewCircuit(tab *Tables) *Circuit {
	c := &Circuit{
		Tab:       tab,
		val:       make([]logic.Value, tab.Net.NumNodes()),
		ts:        make([]logic.Value, tab.Net.NumTransistors()),
		pinTrans:  make([]int8, tab.Net.NumTransistors()),
		forceNode: make([]int8, tab.Net.NumNodes()),
		inputLike: append([]bool(nil), tab.isInput...),
	}
	for i := range c.pinTrans {
		c.pinTrans[i] = unpinned
	}
	for i := range c.forceNode {
		c.forceNode[i] = unforced
	}
	c.Reset()
	return c
}

// Reset restores declared initial states (inputs to Init, storage to X,
// forced nodes to their pins) and recomputes all transistor states. Fault
// pins are preserved; use ClearFaults to remove them.
func (c *Circuit) Reset() {
	nw := c.Tab.Net
	for i := 0; i < nw.NumNodes(); i++ {
		if c.forceNode[i] != unforced {
			c.val[i] = logic.Value(c.forceNode[i])
			continue
		}
		n := nw.Node(netlist.NodeID(i))
		if n.Kind == netlist.Input {
			c.val[i] = n.Init
		} else {
			c.val[i] = logic.X
		}
	}
	c.RecomputeTransistors()
}

// RecomputeTransistors derives every transistor's conduction state from
// its gate node (or pin).
func (c *Circuit) RecomputeTransistors() {
	nw := c.Tab.Net
	for i := 0; i < nw.NumTransistors(); i++ {
		c.ts[i] = c.transistorState(netlist.TransID(i))
	}
}

func (c *Circuit) transistorState(t netlist.TransID) logic.Value {
	if c.pinTrans[t] != unpinned {
		return logic.Value(c.pinTrans[t])
	}
	tr := c.Tab.Net.Transistor(t)
	return logic.SwitchState(tr.Type, c.val[tr.Gate])
}

// Value returns the current state of node n.
func (c *Circuit) Value(n netlist.NodeID) logic.Value { return c.val[n] }

// ValueOf returns the current state of the named node.
func (c *Circuit) ValueOf(name string) logic.Value {
	return c.val[c.Tab.Net.MustLookup(name)]
}

// TransState returns the current conduction state of transistor t.
func (c *Circuit) TransState(t netlist.TransID) logic.Value { return c.ts[t] }

// IsInputLike reports whether node n acts as a signal source: a declared
// input node or a node forced by a stuck-at fault.
func (c *Circuit) IsInputLike(n netlist.NodeID) bool {
	return c.inputLike[n]
}

// PinTransistor pins transistor t's conduction state (stuck-open: Lo,
// stuck-closed: Hi) and returns the storage-node terminals perturbed by
// the change, which the caller should settle. The returned slice is
// reusable scratch, valid until the next mutating call on this circuit.
func (c *Circuit) PinTransistor(t netlist.TransID, state logic.Value) []netlist.NodeID {
	if c.pinTrans[t] == unpinned {
		c.nPins++
	}
	c.pinTrans[t] = int8(state)
	c.seedBuf = c.applyTransState(t, c.seedBuf[:0])
	return c.seedBuf
}

// UnpinTransistor removes a pin, returning perturbed terminals.
func (c *Circuit) UnpinTransistor(t netlist.TransID) []netlist.NodeID {
	if c.pinTrans[t] != unpinned {
		c.nPins--
	}
	c.pinTrans[t] = unpinned
	c.seedBuf = c.applyTransState(t, c.seedBuf[:0])
	return c.seedBuf
}

// applyTransState recomputes transistor t's conduction state and appends
// the perturbed storage-node terminals to buf.
func (c *Circuit) applyTransState(t netlist.TransID, buf []netlist.NodeID) []netlist.NodeID {
	ns := c.transistorState(t)
	if ns == c.ts[t] {
		return buf
	}
	c.ts[t] = ns
	tr := c.Tab.Net.Transistor(t)
	if !c.IsInputLike(tr.Source) {
		buf = append(buf, tr.Source)
	}
	if !c.IsInputLike(tr.Drain) {
		buf = append(buf, tr.Drain)
	}
	return buf
}

// ForceNode pins node n to a state: n behaves as an input node set to the
// specified state (a node stuck-at fault). Returns perturbed nodes: n's
// conducting neighbors plus terminals of transistors n gates.
func (c *Circuit) ForceNode(n netlist.NodeID, state logic.Value) []netlist.NodeID {
	if c.forceNode[n] == unforced {
		c.nForces++
	}
	c.forceNode[n] = int8(state)
	c.inputLike[n] = true
	return c.setNodeValue(n, state)
}

// UnforceNode removes a node force. The node keeps the forced value as
// charge until the network next drives it.
func (c *Circuit) UnforceNode(n netlist.NodeID) []netlist.NodeID {
	if c.forceNode[n] != unforced {
		c.nForces--
	}
	c.forceNode[n] = unforced
	c.inputLike[n] = c.Tab.isInput[n]
	// The node's stored value is now ordinary charge; neighbors must
	// re-settle since the strong source disappeared.
	return c.perturbAround(n)
}

// Faulty reports whether this circuit carries any pins or forces.
func (c *Circuit) Faulty() bool { return c.nPins > 0 || c.nForces > 0 }

// ClearFaults removes every pin and force.
func (c *Circuit) ClearFaults() {
	for i := range c.pinTrans {
		c.pinTrans[i] = unpinned
	}
	for i := range c.forceNode {
		c.forceNode[i] = unforced
	}
	copy(c.inputLike, c.Tab.isInput)
	c.nPins, c.nForces = 0, 0
}

// SetInput assigns a value to an input node and returns the perturbed
// storage nodes. Assigning a forced (faulted) input is a no-op: the fault
// wins, exactly as a stuck line ignores its driver.
func (c *Circuit) SetInput(n netlist.NodeID, v logic.Value) []netlist.NodeID {
	if c.forceNode[n] != unforced {
		return nil
	}
	if c.Tab.Net.Node(n).Kind != netlist.Input {
		panic(fmt.Sprintf("switchsim: SetInput on storage node %q", c.Tab.Net.Name(n)))
	}
	return c.setNodeValue(n, v)
}

// setNodeValue writes a source-node value and computes the perturbation
// set: terminals of gated transistors whose state changed, plus storage
// nodes connected to n by a conducting transistor.
func (c *Circuit) setNodeValue(n netlist.NodeID, v logic.Value) []netlist.NodeID {
	if c.val[n] == v {
		return nil
	}
	c.val[n] = v
	return c.perturbAround(n)
}

func (c *Circuit) perturbAround(n netlist.NodeID) []netlist.NodeID {
	seeds := c.seedBuf[:0]
	// Transistors gated by n change conduction state.
	for _, e := range c.Tab.GatedByOf(n) {
		seeds = c.applyTransState(e.T, seeds)
	}
	// Storage nodes connected to n by a conducting (1 or X) transistor
	// are perturbed by the new source value.
	for _, e := range c.Tab.ChannelOf(n) {
		if c.ts[e.T] == logic.Lo {
			continue
		}
		if !c.IsInputLike(e.Other) {
			seeds = append(seeds, e.Other)
		}
	}
	if !c.IsInputLike(n) {
		seeds = append(seeds, n)
	}
	c.seedBuf = seeds
	return seeds
}

// OverrideValue writes a node value directly, without perturbation
// bookkeeping or transistor updates. Used by the concurrent simulator to
// overlay divergence records onto a copied good state; callers must
// follow up with RefreshGates for every overridden node.
func (c *Circuit) OverrideValue(n netlist.NodeID, v logic.Value) {
	c.val[n] = v
}

// RefreshGates recomputes the conduction states of the transistors gated
// by node n from its current value (and any pins).
func (c *Circuit) RefreshGates(n netlist.NodeID) {
	gv := c.val[n]
	gates := c.Tab.GatedByOf(n)
	if c.nPins == 0 {
		// No pinned transistors anywhere (the common case: the good
		// circuit always, faulty circuits for every node fault) — skip the
		// per-transistor pin probe.
		for _, e := range gates {
			c.ts[e.T] = logic.SwitchState(e.Typ, gv)
		}
		return
	}
	for _, e := range gates {
		if p := c.pinTrans[e.T]; p != unpinned {
			c.ts[e.T] = logic.Value(p)
			continue
		}
		c.ts[e.T] = logic.SwitchState(e.Typ, gv)
	}
}

// DropForce removes a node force without touching the node's value,
// perturbation bookkeeping, or transistor states: how the concurrent
// simulator lifts a lane's fault from a scratch circuit whose values the
// next CopyStateFrom overwrites anyway.
func (c *Circuit) DropForce(n netlist.NodeID) {
	if c.forceNode[n] != unforced {
		c.nForces--
		c.forceNode[n] = unforced
		c.inputLike[n] = c.Tab.isInput[n]
	}
}

// DropPin removes a transistor pin and recomputes the transistor's
// conduction state from its gate value: DropForce's counterpart for
// PinTransistor.
func (c *Circuit) DropPin(t netlist.TransID) {
	if c.pinTrans[t] != unpinned {
		c.nPins--
		c.pinTrans[t] = unpinned
	}
	c.ts[t] = c.transistorState(t)
}

// StateEquals reports whether c and o hold identical node values,
// transistor states, and fault pins. Used by tests to hold the concurrent
// simulator's prev and materialized scratch circuits to independent builds.
func (c *Circuit) StateEquals(o *Circuit) bool {
	if c.Tab != o.Tab || c.nPins != o.nPins || c.nForces != o.nForces {
		return false
	}
	for i := range c.val {
		if c.val[i] != o.val[i] || c.forceNode[i] != o.forceNode[i] {
			return false
		}
	}
	for i := range c.ts {
		if c.ts[i] != o.ts[i] || c.pinTrans[i] != o.pinTrans[i] {
			return false
		}
	}
	return true
}

// CopyStateFrom copies node values and transistor states from src, which
// must share the same Tables. Pins and forces are not copied; callers
// overlay them afterwards. This is the materialization step the concurrent
// simulator uses to build a faulty circuit's view from the good circuit.
func (c *Circuit) CopyStateFrom(src *Circuit) {
	if c.Tab != src.Tab {
		panic("switchsim: CopyStateFrom across different networks")
	}
	copy(c.val, src.val)
	copy(c.ts, src.ts)
}

// Snapshot returns a copy of all node values (for tests and traces).
func (c *Circuit) Snapshot() []logic.Value {
	out := make([]logic.Value, len(c.val))
	copy(out, c.val)
	return out
}

// LoadState overwrites every node value from vals (as returned by
// Snapshot) and rederives all transistor states. The materialization
// oracle builds its reference circuit this way. The circuit must carry no
// pins or forces.
func (c *Circuit) LoadState(vals []logic.Value) {
	if len(vals) != len(c.val) {
		panic(fmt.Sprintf("switchsim: LoadState has %d values, circuit has %d nodes", len(vals), len(c.val)))
	}
	if c.Faulty() {
		panic("switchsim: LoadState into a faulted circuit")
	}
	copy(c.val, vals)
	c.RecomputeTransistors()
}
