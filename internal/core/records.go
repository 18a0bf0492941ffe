package core

import (
	"fmt"
	"sort"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// incInterest registers circuit ci as interested in node n, setting the
// circuit's lane bit in the node's packed interest-mask row (and bumping
// the row's nonzero-word summary on a 0→1 word transition).
func (b *FaultBatch) incInterest(n netlist.NodeID, ci CircuitID) {
	b.interest[n] = b.interest[n].inc(ci)
	word, bit := b.lane(ci)
	w := &b.interestMask[int(n)*b.words+word]
	if *w == 0 {
		b.interestNZ[n]++
	}
	*w |= 1 << bit
}

// decInterest removes one interest reference, clearing the lane bit when
// the count reaches zero.
func (b *FaultBatch) decInterest(n netlist.NodeID, ci CircuitID) {
	b.interest[n] = b.interest[n].dec(ci)
	if _, ok := b.interest[n].find(ci); ok {
		return
	}
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

// recordInterestNodes visits the nodes whose interest registration follows
// from a divergence record at n: n itself, plus the storage channel
// terminals of every transistor gated by n (their conduction in the faulty
// circuit differs from the good circuit while n diverges). This is the
// single definition of the record-interest neighborhood; the interest
// index (inc/dec) and the invariant checker both go through it, and
// because it visits n itself, Observe finds a node's record holders in its
// interest row. The visit closures below do not escape, so they stay on
// the caller's stack.
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

// incRecordInterest / decRecordInterest adjust the interest refcounts
// implied by a divergence record at n.
func (b *FaultBatch) incRecordInterest(n netlist.NodeID, ci CircuitID) {
	b.recordInterestNodes(n, func(m netlist.NodeID) { b.incInterest(m, ci) })
}

func (b *FaultBatch) decRecordInterest(n netlist.NodeID, ci CircuitID) {
	b.recordInterestNodes(n, func(m netlist.NodeID) { b.decInterest(m, ci) })
}

// setRecord inserts or updates the divergence record ⟨ci, v⟩ at node n; a
// new record registers its interest neighborhood.
func (b *FaultBatch) setRecord(n netlist.NodeID, ci CircuitID, v logic.Value) {
	fs := b.faults[ci-1]
	i, exists := fs.recs.find(n)
	if exists {
		fs.recs.vals[i] = v
		return
	}
	fs.recs.insertAt(i, n, v)
	b.incRecordInterest(n, ci)
}

// clearRecord removes the divergence record of circuit ci at node n, if
// present.
func (b *FaultBatch) clearRecord(n netlist.NodeID, ci CircuitID) {
	fs := b.faults[ci-1]
	i, exists := fs.recs.find(n)
	if !exists {
		return
	}
	fs.recs.deleteAt(i)
	b.decRecordInterest(n, ci)
}

// dropCircuit purges every record and interest registration of circuit ci
// — its lane bit leaves every interest row in O(records + sites), and it
// will never be simulated again: the paper's fault dropping, lane-mask
// retired. Its class members, which own no lane state, are dropped with it.
func (b *FaultBatch) dropCircuit(ci CircuitID) {
	fs := b.faults[ci-1]
	for _, n := range fs.recs.nodes {
		b.decRecordInterest(n, ci)
	}
	fs.recs.release()
	for _, n := range fs.sites {
		b.decInterest(n, ci)
	}
	fs.dropped = true
	for _, mfi := range fs.classMembers {
		b.faults[mfi].dropped = true
	}
	b.live -= 1 + len(fs.classMembers)
}

// CheckInvariants verifies the bidirectional consistency of the record
// stores and the interest index, that every record differs from the good
// circuit's value at its node, and that every worker scratch is free of
// pins, forces and pooled record bits between lane-steps. Exported for
// tests; costs O(faults × records).
func (b *FaultBatch) CheckInvariants() error { return b.checkRecordInvariants() }

// checkRecordInvariants verifies the consistency of the record stores and
// the interest index; used by tests.
func (b *FaultBatch) checkRecordInvariants() error {
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
	// The pooled record bitmaps must be fully cleared between circuits.
	for wi, w := range b.workers {
		if w.scratch.Faulty() {
			return errf("worker %d scratch still carries a pin or a force", wi)
		}
		for _, word := range w.recBits {
			if word != 0 {
				return errf("worker %d pooled record bitmap not cleared", wi)
			}
		}
	}
	// Interest refcounts match the independently recomputed counts.
	want := make([]map[CircuitID]int32, b.nw.NumNodes())
	bump := func(n netlist.NodeID, ci CircuitID) {
		if want[n] == nil {
			want[n] = make(map[CircuitID]int32)
		}
		want[n][ci]++
	}
	for fi, fs := range b.faults {
		ci := CircuitID(fi + 1)
		if fs.repFi >= 0 && (fs.recs.size() > 0 || fs.dropped != b.faults[fs.repFi].dropped) {
			return errf("class member %d owns records or is not dropped with its representative", ci)
		}
		if fs.dropped || fs.repFi >= 0 {
			// A class member owns no lane: its representative carries the
			// class's interest registrations.
			continue
		}
		for _, n := range fs.sites {
			bump(n, ci)
		}
		for _, n := range fs.recs.nodes {
			b.recordInterestNodes(n, func(m netlist.NodeID) { bump(m, ci) })
		}
	}
	for n := range b.interest {
		for _, e := range b.interest[n] {
			if want[n] == nil || want[n][e.ci] != e.count {
				return errf("interest[%s][%d]=%d, want %d", b.nw.Name(netlist.NodeID(n)), e.ci, e.count, want[n][e.ci])
			}
		}
		if want[n] != nil {
			// Sorted keys: which violation gets reported must not depend
			// on map iteration order.
			cids := make([]CircuitID, 0, len(want[n]))
			for ci := range want[n] {
				cids = append(cids, ci)
			}
			sort.Slice(cids, func(x, y int) bool { return cids[x] < cids[y] })
			for _, ci := range cids {
				if i, ok := b.interest[n].find(ci); !ok || b.interest[n][i].count != want[n][ci] {
					return errf("interest[%s][%d] missing or wrong, want %d", b.nw.Name(netlist.NodeID(n)), ci, want[n][ci])
				}
			}
		}
		if !sort.SliceIsSorted(b.interest[n], func(x, y int) bool {
			return b.interest[n][x].ci < b.interest[n][y].ci
		}) {
			return errf("node %s interest list unsorted", b.nw.Name(netlist.NodeID(n)))
		}
	}
	// The packed interest mask is exactly the bitmap of the interest
	// lists, and the nonzero-word summaries match.
	for n := 0; n < b.nw.NumNodes(); n++ {
		row := b.interestMask[n*b.words : (n+1)*b.words]
		wantRow := make([]uint64, b.words)
		for _, e := range b.interest[n] {
			word, bit := b.lane(e.ci)
			wantRow[word] |= 1 << bit
		}
		nz := int32(0)
		for w := range row {
			if row[w] != wantRow[w] {
				return errf("interest mask row %s word %d: %#x, want %#x",
					b.nw.Name(netlist.NodeID(n)), w, row[w], wantRow[w])
			}
			if row[w] != 0 {
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
