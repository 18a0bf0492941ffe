package core

import (
	"fmt"
	"slices"
	"sort"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// setInterest sets circuit ci's lane bit in node n's interest row, bumping
// the row's nonzero-word summary on a 0→1 word transition.
func (b *FaultBatch) setInterest(n netlist.NodeID, ci CircuitID) {
	word, bit := b.lane(ci)
	w := &b.interestMask[int(n)*b.words+word]
	if *w == 0 {
		b.interestNZ[n]++
	}
	*w |= 1 << bit
}

// clearInterest clears circuit ci's lane bit in node n's interest row,
// dropping the row's nonzero-word summary on a →0 word transition.
func (b *FaultBatch) clearInterest(n netlist.NodeID, ci CircuitID) {
	word, bit := b.lane(ci)
	w := &b.interestMask[int(n)*b.words+word]
	if *w>>bit&1 == 0 {
		return
	}
	*w &^= 1 << bit
	if *w == 0 {
		b.interestNZ[n]--
	}
}

// recordInterestNodes visits the nodes whose interest follows from a
// divergence record at n: n itself, plus the storage channel terminals of
// every transistor gated by n (their conduction in the faulty circuit
// differs from the good circuit while n diverges). This is the single
// forward definition of the record-interest neighborhood: setRecord,
// dropCircuit and the invariant checker go through it, keepsInterest is its
// inverse, and because it visits n itself, Observe finds a node's record
// holders in its interest row. The visit closures below do not escape, so
// they stay on the caller's stack.
func (b *FaultBatch) recordInterestNodes(n netlist.NodeID, visit func(netlist.NodeID)) {
	visit(n)
	for _, e := range b.tab.GatedByOf(n) {
		if !b.tab.IsInput(e.Src) {
			visit(e.Src)
		}
		if !b.tab.IsInput(e.Drn) {
			visit(e.Drn)
		}
	}
}

// keepsInterest reports whether circuit fs still has a reason to sit in
// node m's interest row: m is one of its sites, or a record of it still
// has m in its neighborhood — a record at m itself, or, for a storage node
// m, a record at the gate of a transistor on m's channel. It inverts
// recordInterestNodes, reading record membership from b.wbRecs, which
// applyOps keeps in step with the circuit being written back.
func (b *FaultBatch) keepsInterest(m netlist.NodeID, fs *faultState) bool {
	if _, ok := slices.BinarySearch(fs.sites, m); ok || hasNodeBit(b.wbRecs, m) {
		return true
	}
	if b.tab.IsInput(m) {
		return false
	}
	for _, e := range b.tab.ChannelOf(m) {
		if hasNodeBit(b.wbRecs, b.nw.Transistor(e.T).Gate) {
			return true
		}
	}
	return false
}

// setRecord inserts or updates the divergence record ⟨ci, v⟩ at node n; a
// new record sets the circuit's bit across its interest neighborhood.
func (b *FaultBatch) setRecord(n netlist.NodeID, ci CircuitID, v logic.Value) {
	fs := b.faults[ci-1]
	i, exists := fs.recs.find(n)
	if exists {
		fs.recs.vals[i] = v
		return
	}
	fs.recs.insertAt(i, n, v)
	b.recordInterestNodes(n, func(m netlist.NodeID) { b.setInterest(m, ci) })
}

// clearRecord removes the divergence record of circuit ci at node n, if
// present. A node of the record's neighborhood may still owe the circuit's
// bit to a site or to another record, so each bit is re-derived rather than
// cleared. b.wbRecs must hold ci's records (see applyOps).
func (b *FaultBatch) clearRecord(n netlist.NodeID, ci CircuitID) {
	fs := b.faults[ci-1]
	i, exists := fs.recs.find(n)
	if !exists {
		return
	}
	fs.recs.deleteAt(i)
	clearNodeBit(b.wbRecs, n)
	b.recordInterestNodes(n, func(m netlist.NodeID) {
		if !b.keepsInterest(m, fs) {
			b.clearInterest(m, ci)
		}
	})
}

// dropCircuit purges every record and interest bit of circuit ci — its
// lane bit leaves every interest row in O(records + sites), unconditionally,
// because a dropped circuit has no reason left to sit in any — and it will
// never be simulated again: the paper's fault dropping, lane-mask retired.
// Its class members, which own no lane state, are dropped with it.
func (b *FaultBatch) dropCircuit(ci CircuitID) {
	fs := b.faults[ci-1]
	for _, n := range fs.recs.nodes {
		b.recordInterestNodes(n, func(m netlist.NodeID) { b.clearInterest(m, ci) })
	}
	fs.recs.empty()
	for _, n := range fs.sites {
		b.clearInterest(n, ci)
	}
	fs.dropped = true
	for _, mfi := range fs.classMembers {
		b.faults[mfi].dropped = true
	}
	b.live -= 1 + len(fs.classMembers)
}

// CheckInvariants verifies that the record stores are sorted and every
// record differs from the good circuit's value at its node, that the
// interest rows are exactly the relation the sites and records define, and
// that every worker scratch and the write-back bitmap are free of pins,
// forces and record bits between lane-steps. Exported for tests; costs
// O(faults × records + nodes × words).
func (b *FaultBatch) CheckInvariants() error {
	// The per-circuit stores are sorted, a dropped circuit holds none, and
	// every record differs from the good circuit's value at its node, which
	// lets Observe take a record at an output as a difference without a
	// compare.
	for fi, fs := range b.faults {
		ci := CircuitID(fi + 1)
		if !sort.SliceIsSorted(fs.recs.nodes, func(a, b int) bool {
			return fs.recs.nodes[a] < fs.recs.nodes[b]
		}) {
			return errf("circuit %d record store unsorted", ci)
		}
		if fs.dropped && fs.recs.size() > 0 {
			return errf("dropped circuit %d still holds records", ci)
		}
		for i, n := range fs.recs.nodes {
			if fs.recs.vals[i] == b.good.Value(n) {
				return errf("record (%d,%s) equals the good value %v", ci, b.nw.Name(n), fs.recs.vals[i])
			}
		}
	}
	// The live counter matches a fresh scan.
	liveScan := 0
	for _, fs := range b.faults {
		if !fs.dropped {
			liveScan++
		}
	}
	if liveScan != b.live {
		return errf("live counter %d, scan finds %d", b.live, liveScan)
	}
	// Between lane-steps a worker scratch holds whatever its last lane
	// left — the next copy from prev overwrites values and transistor
	// states — but never a pin or a force, which the copy does not carry.
	// The pooled record bitmaps, and the write-back one, must be fully
	// cleared between circuits.
	for wi, w := range b.workers {
		if w.scratch.Faulty() {
			return errf("worker %d scratch still carries a pin or a force", wi)
		}
		if slices.ContainsFunc(w.recBits, func(word uint64) bool { return word != 0 }) {
			return errf("worker %d pooled record bitmap not cleared", wi)
		}
	}
	if slices.ContainsFunc(b.wbRecs, func(word uint64) bool { return word != 0 }) {
		return errf("write-back record bitmap not cleared")
	}
	// Every interest row equals the relation recomputed from each live
	// lane's sites and records, and the nonzero-word summaries match.
	want := make([]uint64, len(b.interestMask))
	for fi, fs := range b.faults {
		ci := CircuitID(fi + 1)
		if fs.repFi >= 0 && (fs.recs.size() > 0 || fs.dropped != b.faults[fs.repFi].dropped) {
			return errf("class member %d owns records or is not dropped with its representative", ci)
		}
		if fs.dropped || fs.repFi >= 0 {
			// A class member owns no lane: its representative carries the
			// class's interest.
			continue
		}
		word, bit := b.lane(ci)
		mark := func(m netlist.NodeID) { want[int(m)*b.words+word] |= 1 << bit }
		for _, n := range fs.sites {
			mark(n)
		}
		for _, n := range fs.recs.nodes {
			b.recordInterestNodes(n, mark)
		}
	}
	for n := 0; n < b.nw.NumNodes(); n++ {
		nz := int32(0)
		for w := n * b.words; w < (n+1)*b.words; w++ {
			if b.interestMask[w] != want[w] {
				return errf("interest row %s word %d: %#x, want %#x",
					b.nw.Name(netlist.NodeID(n)), w-n*b.words, b.interestMask[w], want[w])
			}
			if want[w] != 0 {
				nz++
			}
		}
		if b.interestNZ[n] != nz {
			return errf("interestNZ[%s]=%d, scan finds %d", b.nw.Name(netlist.NodeID(n)), b.interestNZ[n], nz)
		}
	}
	return nil
}

type invariantError string

func (e invariantError) Error() string { return string(e) }

func errf(format string, args ...any) error {
	return invariantError(fmt.Sprintf(format, args...))
}
