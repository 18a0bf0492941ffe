package switchsim

import (
	"slices"
	"testing"

	"fmossim/internal/netlist"
)

// WaveShadow checks the compiled good wave against a lane that walks. It
// hangs on the onRound hook of a solver replaying the lane on an index
// that was Built but not Compiled, and reads the wave of a second index
// Compiled for the same setting: at the start of every round the
// fast-forward would have skipped, and of the round it would resume at,
// the walking lane's real pend queue must be the compiled P_r without the
// nodes the lane forces, and no vicinity may have been solved yet.
type WaveShadow struct {
	// Lanes counts replays that would have fast-forwarded, Rounds the
	// round boundaries checked for them.
	Lanes, Rounds int
}

// Attach makes walker check lane (word, bit) of circuit c against ix's
// compiled wave during its next SettleReplayIndexed.
func (sh *WaveShadow) Attach(t testing.TB, walker *Solver, c *Circuit, ix *ReplayIndex, word int, bit uint) {
	skip := 0
	var solved int64
	walker.onRound = func(round int) {
		if round == 0 {
			maxRounds := walker.MaxRounds
			if maxRounds <= 0 {
				maxRounds = walker.defaultMaxRounds()
			}
			skip = ix.sharedRounds(c, walker.pend, word, bit, maxRounds)
			solved = walker.work.Vicinities
			if skip > 0 {
				sh.Lanes++
			}
		}
		if skip == 0 || round > skip {
			return
		}
		sh.Rounds++
		var want []netlist.NodeID
		for _, n := range ix.wave.pendAt(round) {
			if !c.inputLike[n] {
				want = append(want, n)
			}
		}
		if !slices.Equal(walker.pend, want) {
			t.Fatalf("lane (%d,%d) round %d of %d shared: walking pend %v, compiled %v",
				word, bit, round, skip, walker.pend, want)
		}
		if walker.work.Vicinities != solved {
			t.Fatalf("lane (%d,%d): a vicinity was solved before shared round %d of %d", word, bit, round, skip)
		}
	}
}

// WaveDepth returns how many rounds the last Compile compiled.
func (ix *ReplayIndex) WaveDepth() int { return ix.wave.depth }
