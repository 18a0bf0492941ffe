package core

import (
	"fmt"
	"math/bits"
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
// index (inc/dec), the replay divergence seeding, and the invariant
// checker all go through it. The visit closures below do not escape, so
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

// incRecordInterest / decRecordInterest adjust the interest refcounts
// implied by a divergence record at n.
func (b *FaultBatch) incRecordInterest(n netlist.NodeID, ci CircuitID) {
	b.recordInterestNodes(n, func(m netlist.NodeID) { b.incInterest(m, ci) })
}

func (b *FaultBatch) decRecordInterest(n netlist.NodeID, ci CircuitID) {
	b.recordInterestNodes(n, func(m netlist.NodeID) { b.decInterest(m, ci) })
}

// recRow returns node n's packed record row, allocating it on first use.
// Rows are lazy so a batch's footprint scales with the nodes that ever
// carry divergence, not numNodes × words.
func (b *FaultBatch) recRow(n netlist.NodeID) []laneCell {
	ri := b.recRowIdx[n]
	if ri < 0 {
		ri = int32(len(b.recRows))
		b.recRowIdx[n] = ri
		b.recRows = append(b.recRows, make([]laneCell, b.words))
	}
	return b.recRows[ri]
}

// setRecord inserts or updates the divergence record ⟨ci, v⟩ at node n,
// maintaining the node's packed row: membership bit plus the two-plane
// encoding of v in the circuit's lane.
func (b *FaultBatch) setRecord(n netlist.NodeID, ci CircuitID, v logic.Value) {
	fs := b.faults[ci-1]
	i, exists := fs.recs.find(n)
	word, bit := b.lane(ci)
	cell := &b.recRow(n)[word]
	cell.pl.Set(bit, v)
	if exists {
		fs.recs.vals[i] = v
		return
	}
	cell.member |= 1 << bit
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
	word, bit := b.lane(ci)
	cell := &b.recRows[b.recRowIdx[n]][word]
	cell.member &^= 1 << bit
	cell.pl.Clear(bit)
	b.decRecordInterest(n, ci)
}

// dropCircuit purges every record and interest registration of circuit ci
// — its lane bit leaves every packed plane in O(records), and it will
// never be simulated again: the paper's fault dropping, lane-mask retired.
// Its class members, which own no lane state, are dropped with it.
func (b *FaultBatch) dropCircuit(ci CircuitID) {
	fs := b.faults[ci-1]
	word, bit := b.lane(ci)
	for _, n := range fs.recs.nodes {
		cell := &b.recRows[b.recRowIdx[n]][word]
		cell.member &^= 1 << bit
		cell.pl.Clear(bit)
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
// stores and the interest index, and that every worker scratch is free of
// pins, forces and pooled record bits between lane-steps. Exported for
// tests; costs O(faults × records).
func (b *FaultBatch) CheckInvariants() error { return b.checkRecordInvariants() }

// checkRecordInvariants verifies the bidirectional consistency of the
// record stores, the packed record rows, and the interest index; used by
// tests.
func (b *FaultBatch) checkRecordInvariants() error {
	// Every per-circuit record appears as a member bit in the node's
	// packed row with the matching two-plane value, and vice versa, and
	// the per-circuit stores are sorted.
	for fi, fs := range b.faults {
		ci := CircuitID(fi + 1)
		if !sort.SliceIsSorted(fs.recs.nodes, func(a, b int) bool {
			return fs.recs.nodes[a] < fs.recs.nodes[b]
		}) {
			return errf("circuit %d record store unsorted", ci)
		}
		word, bit := b.lane(ci)
		for i, n := range fs.recs.nodes {
			ri := b.recRowIdx[n]
			if ri < 0 {
				return errf("record (%d,%s): node has no packed row", ci, b.nw.Name(n))
			}
			cell := &b.recRows[ri][word]
			if cell.member>>bit&1 == 0 {
				return errf("record (%d,%s) missing from packed row", ci, b.nw.Name(n))
			}
			if got := cell.pl.Get(bit); got != fs.recs.vals[i] {
				return errf("record (%d,%s) plane value %v, store %v", ci, b.nw.Name(n), got, fs.recs.vals[i])
			}
		}
	}
	for n := 0; n < b.nw.NumNodes(); n++ {
		ri := b.recRowIdx[n]
		if ri < 0 {
			continue
		}
		row := b.recRows[ri]
		for w := range row {
			cell := &row[w]
			if !cell.pl.Canonical() {
				return errf("node %s word %d: non-canonical planes", b.nw.Name(netlist.NodeID(n)), w)
			}
			if cell.pl.V&^cell.member != 0 || cell.pl.X&^cell.member != 0 {
				return errf("node %s word %d: plane bits outside membership", b.nw.Name(netlist.NodeID(n)), w)
			}
			for m := cell.member; m != 0; m &= m - 1 {
				fi := w<<6 + bits.TrailingZeros64(m)
				if fi >= len(b.faults) {
					return errf("node %s word %d: member bit beyond fault count", b.nw.Name(netlist.NodeID(n)), w)
				}
				fs := b.faults[fi]
				if fs.dropped {
					return errf("dropped circuit %d still packed on node %s", fi+1, b.nw.Name(netlist.NodeID(n)))
				}
				if _, ok := fs.recs.get(netlist.NodeID(n)); !ok {
					return errf("packed member (%d,%s) has no record", fi+1, b.nw.Name(netlist.NodeID(n)))
				}
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
