package main

import (
	"math"
	"time"
)

// The reference box (a two-vCPU guest on a shared host) changes its clock
// under the benchmark: every few seconds a core flips between two speeds
// about a quarter apart, and for minutes at a time the whole guest runs
// slower still. A wall time therefore says more about when it was taken
// than about the program. The harness corrects for it by timing a fixed
// loop of its own, calibrate, right before and right after everything it
// times, and scaling the wall to what it would have been with the loop at
// refCal: wall × refCal ÷ the mean of the two calibrations. The loop is
// register-only, so it tracks the clock and nothing else; the simulator's
// walls move with it to within a few per cent (see README.md,
// "Steadiness"). When the two calibrations disagree the clock changed
// under the measurement and their mean is a guess, so the statistic over
// repeated measurements (typical) prefers those where they agree. Every
// reported time is such a clock-corrected time; the walls as measured and
// the calibrations are kept beside them in the result file.

// refCal is calibrate's wall in seconds on the reference box at full
// clock: the speed every reported time is scaled to.
const refCal = 0.0087

var calSink uint64

// calibrate times a fixed xorshift chain: one dependent register
// operation after another, no memory, no allocation.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 6_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calSink += x
	return time.Since(t0).Seconds()
}

// wall is one timed interval.
type wall struct {
	Raw float64    `json:"raw_s"` // as measured
	S   float64    `json:"s"`     // corrected to the reference clock
	Cal [2]float64 `json:"cal_s"` // the calibrations before and after it
}

// steady reports that the clock did not change under the interval, as far
// as the two calibrations can tell: they agree within steadyTol. Only then
// is their mean the speed the interval ran at.
func (w wall) steady() bool {
	return math.Abs(w.Cal[0]-w.Cal[1]) <= steadyTol*min(w.Cal[0], w.Cal[1])
}

const steadyTol = 0.03

// clocked runs f between two calibrations and returns its wall.
func clocked(f func()) wall {
	c0 := calibrate()
	t0 := time.Now()
	f()
	raw := time.Since(t0).Seconds()
	c1 := calibrate()
	return wall{Raw: raw, S: raw * refCal * 2 / (c0 + c1), Cal: [2]float64{c0, c1}}
}

// typical is the lowest decile of the corrected walls of the steady
// intervals among ws when at least a third of ws were steady, and of all
// of them otherwise: while the clock flips faster than the intervals
// last, two calibrations agree only by chance and the few that do are no
// better than the rest. A low quantile, not the median, because what the
// correction leaves of the host's interference (contention for something
// the calibration loop does not use) only ever adds time, sometimes to
// every sample of a run: on 200 archived runs the lowest decile spread
// half as wide as the median across a rough stretch of the host and moved
// half as far between a rough and a calm one. Not the minimum either: one
// over-corrected sample (a calibration that caught a hiccup the interval
// did not) would set it.
func typical(ws []wall) float64 {
	var steady, all []float64
	for _, w := range ws {
		all = append(all, w.S)
		if w.steady() {
			steady = append(steady, w.S)
		}
	}
	if 3*len(steady) < len(all) {
		steady = all
	}
	return quantile(steady, 0.10)
}
