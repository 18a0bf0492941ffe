// Two-plane lane encoding: up to 64 ternary values packed into a pair of
// bit-planes, one lane per bit position. The concurrent simulator groups
// fault circuits into lane words so that membership and divergence tests
// against the good circuit run word-wide (one AND/XOR per 64 circuits)
// instead of once per circuit: a lane word's divergence-record row answers
// "which of these circuits differ from the good value" with one
// EqValueMask.
//
// Encoding (canonical form):
//
//	value  V-plane bit  X-plane bit
//	 Lo        0            0
//	 Hi        1            0
//	 X         0            1
//
// The canonical form keeps the V bit clear wherever the X bit is set, so
// equality is a plain two-plane compare and the X plane doubles as the
// "indeterminate" mask (the strength/validity plane: a set X bit means the
// lane carries no definite voltage). Lanes not covered by a caller-side
// membership mask hold (0,0); callers must mask results accordingly.
package switchsim

import "fmossim/internal/logic"

// LanePlanes packs up to 64 ternary values as two bit-planes.
type LanePlanes struct {
	// V is the value plane: bit i set means lane i holds Hi.
	V uint64
	// X is the indeterminate plane: bit i set means lane i holds X
	// (and the corresponding V bit is clear, by canonical form).
	X uint64
}

// Set stores val into lane bit (0..63), preserving canonical form.
func (p *LanePlanes) Set(bit uint, val logic.Value) {
	m := uint64(1) << bit
	switch val {
	case logic.Hi:
		p.V |= m
		p.X &^= m
	case logic.Lo:
		p.V &^= m
		p.X &^= m
	default:
		p.V &^= m
		p.X |= m
	}
}

// Clear resets lane bit to the zero (Lo) encoding.
func (p *LanePlanes) Clear(bit uint) {
	m := uint64(1) << bit
	p.V &^= m
	p.X &^= m
}

// Get returns the value in lane bit.
func (p LanePlanes) Get(bit uint) logic.Value {
	if p.X>>bit&1 != 0 {
		return logic.X
	}
	if p.V>>bit&1 != 0 {
		return logic.Hi
	}
	return logic.Lo
}

// EqValueMask returns the lanes where p equals the broadcast value v.
func (p LanePlanes) EqValueMask(v logic.Value) uint64 {
	switch v {
	case logic.Hi:
		return p.V & ^p.X
	case logic.Lo:
		return ^p.V & ^p.X
	default:
		return p.X
	}
}

// Canonical reports whether p is in canonical form (no lane has both the
// V and X bits set). Set and Clear preserve it.
func (p LanePlanes) Canonical() bool { return p.V&p.X == 0 }
