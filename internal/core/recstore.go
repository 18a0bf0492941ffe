package core

import (
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// recStore is a faulty circuit's divergence-record store: the nodes where
// the circuit's state differs from the good circuit, with the diverged
// values, kept as parallel sorted slices. Divergence sets are small and
// churn constantly, so a cache-friendly sorted slice with binary search
// beats a hash map on both lookup and iteration, and iteration order is
// deterministic (ascending node id) for free.
type recStore struct {
	nodes []netlist.NodeID
	vals  []logic.Value
}

// find returns the index of n and whether it is present.
func (r *recStore) find(n netlist.NodeID) (int, bool) {
	lo, hi := 0, len(r.nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.nodes[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(r.nodes) && r.nodes[lo] == n
}

// get returns the recorded value at n, if present.
func (r *recStore) get(n netlist.NodeID) (logic.Value, bool) {
	if i, ok := r.find(n); ok {
		return r.vals[i], true
	}
	return 0, false
}

// insertAt inserts (n, v) at index i, keeping the store sorted.
func (r *recStore) insertAt(i int, n netlist.NodeID, v logic.Value) {
	r.nodes = append(r.nodes, 0)
	copy(r.nodes[i+1:], r.nodes[i:])
	r.nodes[i] = n
	r.vals = append(r.vals, 0)
	copy(r.vals[i+1:], r.vals[i:])
	r.vals[i] = v
}

// deleteAt removes the record at index i.
func (r *recStore) deleteAt(i int) {
	r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
	r.vals = append(r.vals[:i], r.vals[i+1:]...)
}

// size returns the number of records.
func (r *recStore) size() int { return len(r.nodes) }

// empty removes every record (fault dropping), keeping the arrays for the
// next window a re-armed batch runs in this slot (see FaultBatch.Reset).
func (r *recStore) empty() { r.nodes, r.vals = r.nodes[:0], r.vals[:0] }

// Node-indexed bitmaps: bit n%64 of word n/64 stands for node n.

func setNodeBit(bm []uint64, n netlist.NodeID)   { bm[uint(n)>>6] |= 1 << (uint(n) & 63) }
func clearNodeBit(bm []uint64, n netlist.NodeID) { bm[uint(n)>>6] &^= 1 << (uint(n) & 63) }
func hasNodeBit(bm []uint64, n netlist.NodeID) bool {
	return bm[uint(n)>>6]>>(uint(n)&63)&1 != 0
}
