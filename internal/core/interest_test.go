package core

import (
	"math/rand"
	"slices"
	"testing"

	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
	"fmossim/internal/testnet"
)

// An interest-op stream is a sequence of five-byte ops: a batch fault index
// (two bytes, modulo the batch width), a node (two bytes) and a control
// byte. The control byte's low three bits pick the kind (0–3 set a record,
// 4–6 clear one, 7 drop the circuit); opGlobal takes the node id modulo the
// network size instead of indexing the fault's neighbourhood pool; opAlt
// picks which of the two values other than the good one a set writes;
// opFlush ends the circuit's write-back after the op. A change of circuit
// ends a write-back too, and a write-back names each node at most once, as
// a diff does.
const (
	opSet    = 0
	opClear  = 4
	opDrop   = 7
	opGlobal = 1 << 3
	opAlt    = 1 << 4
	opFlush  = 1 << 7
)

// interestOp appends one op to an interest-op stream.
func interestOp(ops []byte, fi int, n netlist.NodeID, ctl byte) []byte {
	return append(ops, byte(fi>>8), byte(fi), byte(n>>8), byte(n), ctl)
}

// neighbourhoodPool lists the nodes near fault fi, where its records
// interact with its sites and with each other: the faulted node or the
// faulted transistor's terminals, the sites, the gates of the transistors
// on a site's channel (a record there reaches the site) and the channel
// terminals of the transistors a site gates.
func neighbourhoodPool(b *FaultBatch, fi int) []netlist.NodeID {
	fs := b.faults[fi]
	var pool []netlist.NodeID
	if fs.f.Kind.IsNodeFault() {
		pool = append(pool, fs.f.Node)
	} else {
		tr := b.nw.Transistor(fs.f.Trans)
		pool = append(pool, tr.Gate, tr.Source, tr.Drain)
	}
	for _, s := range fs.sites {
		pool = append(pool, s)
		for _, e := range b.tab.ChannelOf(s) {
			pool = append(pool, b.nw.Transistor(e.T).Gate)
		}
		for _, e := range b.tab.GatedByOf(s) {
			pool = append(pool, e.Src, e.Drn)
		}
	}
	return pool
}

// replayInterestOps writes an interest-op stream back into b through
// applyOps, the one write-back path, and checks the invariants — every
// interest row equal to the relation recomputed from sites and records, the
// write-back bitmap clear — after every circuit's write-back and every
// drop.
func replayInterestOps(t *testing.T, b *FaultBatch, ops []byte) {
	t.Helper()
	var group []recOp
	var groupCi CircuitID
	check := func(what string, ci CircuitID) {
		t.Helper()
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("after %s of %s: %v", what, b.faults[ci-1].f.Describe(b.nw), err)
		}
	}
	flush := func() {
		t.Helper()
		if groupCi == 0 {
			return
		}
		b.applyOps(groupCi, group, false)
		check("write-back", groupCi)
		group, groupCi = group[:0], 0
	}
	for ; len(ops) >= 5; ops = ops[5:] {
		fi := (int(ops[0])<<8 | int(ops[1])) % len(b.faults)
		ci, ctl := CircuitID(fi+1), ops[4]
		if ci != groupCi {
			flush()
		}
		if b.faults[fi].dropped {
			continue
		}
		if ctl&7 == opDrop {
			flush()
			b.dropCircuit(ci)
			check("drop", ci)
			continue
		}
		raw := int(ops[2])<<8 | int(ops[3])
		n := netlist.NodeID(raw % b.nw.NumNodes())
		if ctl&opGlobal == 0 {
			pool := neighbourhoodPool(b, fi)
			n = pool[raw%len(pool)]
		}
		if slices.ContainsFunc(group, func(op recOp) bool { return op.n == n }) {
			continue
		}
		op := recOp{n: n}
		if ctl&7 < opClear {
			alt := 1
			if ctl&opAlt != 0 {
				alt = 2
			}
			op.set, op.v = true, logic.Value((int(b.good.Value(n))+alt)%3)
		}
		group, groupCi = append(group, op), ci
		if ctl&opFlush != 0 {
			flush()
		}
	}
	flush()
}

// soupUniverse is every stuck-at fault of a network: node faults on the
// storage nodes and the inputs, and transistor faults.
func soupUniverse(nw *netlist.Network) []fault.Fault {
	fs := fault.NodeStuckFaults(nw, fault.Options{})
	for _, in := range nw.Inputs() {
		fs = append(fs, fault.Fault{Kind: fault.NodeStuck0, Node: in}, fault.Fault{Kind: fault.NodeStuck1, Node: in})
	}
	return append(fs, fault.TransistorStuckFaults(nw, fault.Options{})...)
}

// interestSeeds are the three directed op streams on RAM64's wide universe:
//   - shared: one circuit holds records at the gates of two transistors
//     that share a channel terminal m and clears one; m's bit must survive
//     through the other. It then takes a record at m itself and clears the
//     second gate; m's bit must survive through m's own record, and go
//     with it;
//   - site: a stuck storage node s, and a record at the gate of a
//     transistor on s's channel is set and cleared — s's bit must stay, as
//     s is a site;
//   - input: a stuck input node in holds a record at in and at the gate g
//     of a transistor on in's channel; clearing in's record must clear in's
//     bit, though g, which still holds a record, gates a transistor on
//     in's channel (an input is never in a record's gated neighbourhood).
func interestSeeds(b *FaultBatch) (shared, site, input []byte) {
	nw, tab := b.nw, b.tab
	storageGate := func(e switchsim.ChanEdge) (netlist.NodeID, bool) {
		g := nw.Transistor(e.T).Gate
		return g, !tab.IsInput(g)
	}
	faultAt := func(n netlist.NodeID) int {
		for fi, fs := range b.faults {
			if fs.f.Kind.IsNodeFault() && fs.f.Node == n {
				return fi
			}
		}
		return -1
	}
	for m := netlist.NodeID(0); int(m) < nw.NumNodes() && shared == nil; m++ {
		if tab.IsInput(m) || slices.Contains(b.faults[0].sites, m) {
			continue
		}
		var gates []netlist.NodeID
		for _, e := range tab.ChannelOf(m) {
			if g, ok := storageGate(e); ok && !slices.Contains(gates, g) {
				gates = append(gates, g)
			}
		}
		// m must not gate its own channel (a depletion load does): then a
		// record at m would reach m through the channel as well.
		if len(gates) >= 2 && !slices.Contains(gates, m) {
			shared = interestOp(shared, 0, gates[0], opSet|opGlobal)
			shared = interestOp(shared, 0, gates[1], opSet|opGlobal|opFlush)
			shared = interestOp(shared, 0, gates[0], opClear|opGlobal|opFlush)
			shared = interestOp(shared, 0, m, opSet|opGlobal|opFlush)
			shared = interestOp(shared, 0, gates[1], opClear|opGlobal|opFlush)
			shared = interestOp(shared, 0, m, opClear|opGlobal|opFlush)
		}
	}
	for s := netlist.NodeID(0); int(s) < nw.NumNodes() && site == nil; s++ {
		fi := faultAt(s)
		if tab.IsInput(s) || fi < 0 {
			continue
		}
		for _, e := range tab.ChannelOf(s) {
			if g, ok := storageGate(e); ok && g != s && !slices.Contains(b.faults[fi].sites, g) {
				site = interestOp(site, fi, g, opSet|opGlobal|opFlush)
				site = interestOp(site, fi, g, opClear|opGlobal|opFlush)
				break
			}
		}
	}
	for _, in := range nw.Inputs() {
		fi := faultAt(in)
		if fi < 0 || input != nil {
			continue
		}
		for _, e := range tab.ChannelOf(in) {
			if g, ok := storageGate(e); ok {
				input = interestOp(input, fi, in, opSet|opGlobal)
				input = interestOp(input, fi, g, opSet|opGlobal|opFlush)
				input = interestOp(input, fi, in, opClear|opGlobal|opFlush)
				input = interestOp(input, fi, g, opClear|opGlobal|opFlush)
				break
			}
		}
	}
	return shared, site, input
}

// ram64InterestBatch builds a fresh, unstepped batch over RAM64's wide
// universe, sharing tab and faults.
func ram64InterestBatch(t testing.TB, m *ram.RAM, tab *switchsim.Tables, faults []fault.Fault) *FaultBatch {
	b, err := NewFaultBatch(tab, faults, Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClearedInputRecordLeavesItsRow: the input shape of interestSeeds,
// with the row at the input checked directly. A circuit that loses its
// record at an input node has no reason left to sit in that node's row —
// an input is never a site and never in a record's gated neighbourhood —
// even though a record it still holds gates a transistor on the input's
// channel. The write-back bitmap must also be clear again after every
// write-back: a bit left behind would keep a later circuit's bits alive.
func TestClearedInputRecordLeavesItsRow(t *testing.T) {
	m := ram.RAM64()
	tab := switchsim.NewTables(m.Net)
	faults := wideUniverse(m)
	b := ram64InterestBatch(t, m, tab, faults)
	_, _, input := interestSeeds(b)
	if input == nil {
		t.Fatal("RAM64 has no stuck input with a storage-gated transistor on its channel")
	}
	replayInterestOps(t, b, input[:15])
	fi := int(input[0])<<8 | int(input[1])
	in := netlist.NodeID(int(input[2])<<8 | int(input[3]))
	word, bit := b.lane(CircuitID(fi + 1))
	if b.interestMask[int(in)*b.words+word]>>bit&1 != 0 {
		t.Fatalf("%s: bit still set in the row of input %s after its record was cleared",
			faults[fi].Describe(m.Net), m.Net.Name(in))
	}
	if slices.ContainsFunc(b.wbRecs, func(w uint64) bool { return w != 0 }) {
		t.Fatal("write-back bitmap not cleared after the write-back")
	}
}

// FuzzInterestRows drives random record set/clear/drop streams through
// applyOps on RAM64's wide universe (net even) or on a random soup (net
// odd, built from seed) and holds the interest rows to the relation the
// sites and records define after every write-back. The seeds are the
// three shapes of interestSeeds plus a soup stream.
func FuzzInterestRows(f *testing.F) {
	m := ram.RAM64()
	tab := switchsim.NewTables(m.Net)
	faults := wideUniverse(m)
	shared, site, input := interestSeeds(ram64InterestBatch(f, m, tab, faults))
	if shared == nil || site == nil || input == nil {
		f.Fatal("RAM64 lacks a shape of interestSeeds")
	}
	for _, ops := range [][]byte{shared, site, input} {
		f.Add(uint8(0), int64(0), ops)
	}
	rng := rand.New(rand.NewSource(1))
	soup := make([]byte, 5*40)
	rng.Read(soup)
	f.Add(uint8(1), int64(7), soup)
	f.Fuzz(func(t *testing.T, net uint8, seed int64, ops []byte) {
		if net%2 == 0 {
			replayInterestOps(t, ram64InterestBatch(t, m, tab, faults), ops)
			return
		}
		tc := testnet.Soup(rand.New(rand.NewSource(seed)))
		b, err := NewFaultBatch(switchsim.NewTables(tc.Net), soupUniverse(tc.Net), Options{Observe: tc.Outputs, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		replayInterestOps(t, b, ops)
	})
}
