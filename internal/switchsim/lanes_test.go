package switchsim

import (
	"testing"

	"fmossim/internal/logic"
)

var ternary = []logic.Value{logic.Lo, logic.Hi, logic.X}

// filled returns planes holding v in every lane, written lane by lane.
func filled(v logic.Value) LanePlanes {
	var p LanePlanes
	for bit := uint(0); bit < 64; bit++ {
		p.Set(bit, v)
	}
	return p
}

// TestLaneOpsMatchTruthTables checks every lane operation against the
// scalar internal/logic truth tables, exhaustively over all ternary value
// pairs, in every lane position with adversarial neighbor lanes.
func TestLaneOpsMatchTruthTables(t *testing.T) {
	// Neighbor fillers exercise cross-lane independence: all-Lo, all-Hi,
	// all-X around the lane under test.
	for _, fill := range ternary {
		for bit := uint(0); bit < 64; bit += 7 {
			for _, a := range ternary {
				for _, b := range ternary {
					p := filled(fill)
					p.Set(bit, a)
					if !p.Canonical() {
						t.Fatalf("fill=%v bit=%d: non-canonical planes", fill, bit)
					}
					if got := p.Get(bit); got != a {
						t.Fatalf("Get(Set(%v)) = %v", a, got)
					}
					if got, want := p.EqValueMask(b)>>bit&1 == 1, a == b; got != want {
						t.Errorf("EqValueMask(%v,%v) = %v, want %v", a, b, got, want)
					}

					// The lane under test must not leak into neighbors.
					for _, nb := range []uint{(bit + 1) % 64, (bit + 63) % 64} {
						if got := p.Get(nb); got != fill {
							t.Fatalf("Set(%d,%v) disturbed lane %d: %v != %v", bit, a, nb, got, fill)
						}
					}
				}
			}
		}
	}
}

// TestBroadcast: a value set in every lane reads back from every lane, and
// its EqValueMask is the whole word.
func TestBroadcast(t *testing.T) {
	for _, v := range ternary {
		p := filled(v)
		if !p.Canonical() {
			t.Fatalf("%v in every lane is not canonical", v)
		}
		for bit := uint(0); bit < 64; bit++ {
			if got := p.Get(bit); got != v {
				t.Fatalf("%v in every lane: Get(%d) = %v", v, bit, got)
			}
		}
		if got := p.EqValueMask(v); got != ^uint64(0) {
			t.Fatalf("%v in every lane: EqValueMask = %#x", v, got)
		}
	}
}

func TestLaneClear(t *testing.T) {
	p := filled(logic.X)
	p.Clear(17)
	if got := p.Get(17); got != logic.Lo {
		t.Fatalf("Clear left %v", got)
	}
	if got := p.Get(18); got != logic.X {
		t.Fatalf("Clear disturbed neighbor: %v", got)
	}
}

// FuzzLaneOps round-trips arbitrary plane pairs through pack/unpack and
// cross-checks EqValueMask against the scalar values lane by lane.
// Non-canonical inputs are first canonicalized the way the decoder sees
// them (X wins over V).
func FuzzLaneOps(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(0), uint64(0), ^uint64(0))
	f.Add(uint64(0xdeadbeef), uint64(0x12345678), uint64(0x0f0f0f0f), uint64(0xf0f0f0f0))
	f.Fuzz(func(t *testing.T, pv, px, qv, qx uint64) {
		// Canonicalize: the X plane wins, as Get defines.
		for _, p := range []LanePlanes{{V: pv &^ px, X: px}, {V: qv &^ qx, X: qx}} {
			// Pack/unpack round trip.
			var rp LanePlanes
			for bit := uint(0); bit < 64; bit++ {
				rp.Set(bit, p.Get(bit))
			}
			if rp != p {
				t.Fatalf("round trip: %+v != %+v", rp, p)
			}
			for _, v := range ternary {
				eq := p.EqValueMask(v)
				for bit := uint(0); bit < 64; bit++ {
					if got, want := eq>>bit&1 == 1, p.Get(bit) == v; got != want {
						t.Fatalf("EqValueMask(%v) bit %d: %v want %v", v, bit, got, want)
					}
				}
			}
		}
	})
}
