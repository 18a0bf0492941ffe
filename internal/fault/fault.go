// Fault types, enumeration, sampling, and description. Package
// documentation lives in doc.go.
package fault

import (
	"fmt"
	"math/rand" //fmossim:nondeterminism-ok Sample takes a caller-seeded *rand.Rand; sampling is reproducible given the seed
	"slices"
	"sort"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// Kind enumerates the supported fault classes.
type Kind uint8

const (
	// NodeStuck0 pins a node low: it behaves as an input node at 0.
	NodeStuck0 Kind = iota
	// NodeStuck1 pins a node high.
	NodeStuck1
	// NodeStuckX pins a node to X (a permanently indeterminate source,
	// e.g. a floating driver); rarely used but free in the model.
	NodeStuckX
	// TransStuckOpen pins a transistor non-conducting.
	TransStuckOpen
	// TransStuckClosed pins a transistor conducting.
	TransStuckClosed
	// Bridge closes a normally-open fault transistor: a short between its
	// channel terminals.
	Bridge
	// Open opens a normally-closed breakable wire: an open circuit
	// between its channel terminals.
	Open
)

// String returns a short mnemonic ("sa0", "open", ...).
func (k Kind) String() string {
	switch k {
	case NodeStuck0:
		return "sa0"
	case NodeStuck1:
		return "sa1"
	case NodeStuckX:
		return "sax"
	case TransStuckOpen:
		return "stuck-open"
	case TransStuckClosed:
		return "stuck-closed"
	case Bridge:
		return "short"
	case Open:
		return "open"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsNodeFault reports whether the kind targets a node.
func (k Kind) IsNodeFault() bool { return k <= NodeStuckX }

// Fault is a single fault instance.
type Fault struct {
	Kind  Kind
	Node  netlist.NodeID // valid when Kind.IsNodeFault()
	Trans netlist.TransID
}

// Describe renders a human-readable fault name using network names.
func (f Fault) Describe(nw *netlist.Network) string {
	if f.Kind.IsNodeFault() {
		return fmt.Sprintf("%s %s", nw.Name(f.Node), f.Kind)
	}
	tr := nw.Transistor(f.Trans)
	label := tr.Label
	if label == "" {
		label = fmt.Sprintf("t%d", f.Trans)
	}
	switch f.Kind {
	case Bridge:
		return fmt.Sprintf("short %s/%s (%s)", nw.Name(tr.Source), nw.Name(tr.Drain), label)
	case Open:
		return fmt.Sprintf("open %s/%s (%s)", nw.Name(tr.Source), nw.Name(tr.Drain), label)
	}
	return fmt.Sprintf("%s %s", label, f.Kind)
}

// pinState returns the conduction state a transistor fault pins.
func (f Fault) pinState() logic.Value {
	switch f.Kind {
	case TransStuckOpen, Open:
		return logic.Lo
	case TransStuckClosed, Bridge:
		return logic.Hi
	}
	panic("fault: pinState on node fault")
}

// forcedValue returns the node state a node fault forces.
func (f Fault) forcedValue() logic.Value {
	switch f.Kind {
	case NodeStuck0:
		return logic.Lo
	case NodeStuck1:
		return logic.Hi
	case NodeStuckX:
		return logic.X
	}
	panic("fault: forcedValue on transistor fault")
}

// PinnedState returns the conduction state a transistor fault pins, and
// whether the fault is a transistor fault at all.
func (f Fault) PinnedState() (logic.Value, bool) {
	if f.Kind.IsNodeFault() {
		return logic.X, false
	}
	return f.pinState(), true
}

// ForcedState returns the node state a node fault forces, and whether the
// fault is a node fault at all.
func (f Fault) ForcedState() (logic.Value, bool) {
	if !f.Kind.IsNodeFault() {
		return logic.X, false
	}
	return f.forcedValue(), true
}

// Apply injects the fault into a circuit and returns the perturbed storage
// nodes the caller must settle.
func (f Fault) Apply(c *switchsim.Circuit) []netlist.NodeID {
	if f.Kind.IsNodeFault() {
		return c.ForceNode(f.Node, f.forcedValue())
	}
	return c.PinTransistor(f.Trans, f.pinState())
}

// Remove lifts the fault, returning perturbed storage nodes.
func (f Fault) Remove(c *switchsim.Circuit) []netlist.NodeID {
	if f.Kind.IsNodeFault() {
		return c.UnforceNode(f.Node)
	}
	return c.UnpinTransistor(f.Trans)
}

// Sites returns the static interest sites of the fault: the storage nodes
// at which the faulty circuit's behavior can deviate from the good
// circuit's even when their local states agree. The concurrent simulator
// re-simulates a faulty circuit whenever good-circuit activity touches one
// of these (or one of the circuit's divergence records).
func (f Fault) Sites(nw *netlist.Network) []netlist.NodeID { return f.AppendSites(nil, nw) }

// AppendSites appends the fault's static interest sites (Sites), sorted
// and without duplicates, to dst and returns the extended slice: a caller
// that keeps dst's array across faults allocates nothing once it is large
// enough.
func (f Fault) AppendSites(dst []netlist.NodeID, nw *netlist.Network) []netlist.NodeID {
	start := len(dst)
	add := func(n netlist.NodeID) {
		if nw.Node(n).Kind != netlist.Input {
			dst = append(dst, n)
		}
	}
	if f.Kind.IsNodeFault() {
		add(f.Node)
		// The forced node gates transistors whose switching differs from
		// the good circuit whenever the good node changes.
		for _, t := range nw.GatedBy(f.Node) {
			tr := nw.Transistor(t)
			add(tr.Source)
			add(tr.Drain)
		}
	} else {
		tr := nw.Transistor(f.Trans)
		add(tr.Source)
		add(tr.Drain)
	}
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// Options configures fault enumeration.
type Options struct {
	// IncludeTies includes the TieHi/TieLo convention inputs' gated
	// structure in transistor enumeration (normally excluded: fault
	// transistors are fault carriers themselves, not fault targets).
	IncludeTies bool
	// NodeFilter, when non-nil, restricts node faults to nodes for which
	// it returns true.
	NodeFilter func(nw *netlist.Network, n netlist.NodeID) bool
	// TransFilter, when non-nil, restricts transistor faults.
	TransFilter func(nw *netlist.Network, t netlist.TransID) bool
}

// isFaultCarrier reports whether transistor t is a fault-injection device
// (gated by a Tie rail) rather than real circuit structure.
func isFaultCarrier(nw *netlist.Network, t netlist.TransID) bool {
	g := nw.Name(nw.Transistor(t).Gate)
	return g == netlist.TieHiName || g == netlist.TieLoName
}

// NodeStuckFaults enumerates single storage-node stuck-at-0 and stuck-at-1
// faults over every storage node, in node order (sa0 before sa1), the
// fault classes the paper's RAM experiments draw from.
func NodeStuckFaults(nw *netlist.Network, opt Options) []Fault {
	var fs []Fault
	for _, n := range nw.StorageNodes() {
		if opt.NodeFilter != nil && !opt.NodeFilter(nw, n) {
			continue
		}
		fs = append(fs, Fault{Kind: NodeStuck0, Node: n}, Fault{Kind: NodeStuck1, Node: n})
	}
	return fs
}

// TransistorStuckFaults enumerates stuck-open and stuck-closed faults for
// every real transistor (fault-carrier devices excluded unless
// opt.IncludeTies).
func TransistorStuckFaults(nw *netlist.Network, opt Options) []Fault {
	var fs []Fault
	for i := 0; i < nw.NumTransistors(); i++ {
		t := netlist.TransID(i)
		if !opt.IncludeTies && isFaultCarrier(nw, t) {
			continue
		}
		if opt.TransFilter != nil && !opt.TransFilter(nw, t) {
			continue
		}
		fs = append(fs, Fault{Kind: TransStuckOpen, Trans: t}, Fault{Kind: TransStuckClosed, Trans: t})
	}
	return fs
}

// BridgeFaults wraps bridge-candidate transistor ids (as returned by
// netlist.Builder.BridgeCandidate) as short faults.
func BridgeFaults(candidates []netlist.TransID) []Fault {
	fs := make([]Fault, len(candidates))
	for i, t := range candidates {
		fs[i] = Fault{Kind: Bridge, Trans: t}
	}
	return fs
}

// OpenFaults wraps breakable-wire transistor ids (as returned by
// netlist.Builder.Breakable) as open faults.
func OpenFaults(wires []netlist.TransID) []Fault {
	fs := make([]Fault, len(wires))
	for i, t := range wires {
		fs[i] = Fault{Kind: Open, Trans: t}
	}
	return fs
}

// Sample draws a uniform random sample of n faults without replacement,
// preserving enumeration order within the sample (deterministic for a
// given rng state). If n >= len(fs), a copy of fs is returned.
func Sample(fs []Fault, n int, rng *rand.Rand) []Fault {
	if n >= len(fs) {
		out := make([]Fault, len(fs))
		copy(out, fs)
		return out
	}
	idx := rng.Perm(len(fs))[:n]
	sort.Ints(idx)
	out := make([]Fault, n)
	for i, j := range idx {
		out[i] = fs[j]
	}
	return out
}
