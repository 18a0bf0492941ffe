package bench_test

import (
	"bytes"
	"strings"
	"testing"

	"fmossim/internal/bench"
	"fmossim/internal/march"
	"fmossim/internal/ram"
)

// small returns a quick 4×4 instance for harness tests.
func small() *ram.RAM { return ram.New(ram.Config{Rows: 4, Cols: 4}) }

func TestRunCurveSmall(t *testing.T) {
	m := small()
	r, err := bench.RunCurve(m, bench.NodeStuckOnly(m), march.Sequence1(m), 7+5*4+5*4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(march.Sequence1(m).Patterns) {
		t.Fatalf("rows %d != patterns", len(r.Rows))
	}
	if r.Detected == 0 || r.Detected > r.Faults {
		t.Errorf("detected %d of %d", r.Detected, r.Faults)
	}
	if r.ConcVsGood <= 1 {
		t.Errorf("concurrent/good ratio %f should exceed 1", r.ConcVsGood)
	}
	if r.SerialVsConc <= 1 {
		t.Errorf("serial/concurrent ratio %f should exceed 1 (concurrency must win)", r.SerialVsConc)
	}
	if r.HeadWorkFraction <= 0 || r.HeadWorkFraction >= 1 {
		t.Errorf("head fraction %f out of range", r.HeadWorkFraction)
	}
	// Monotone cumulative detections ending at the total.
	last := 0
	for _, row := range r.Rows {
		if row.CumDetected < last {
			t.Fatal("cumulative detections decreased")
		}
		last = row.CumDetected
	}
	if last != r.Detected {
		t.Errorf("cumulative end %d != detected %d", last, r.Detected)
	}

	var buf bytes.Buffer
	if err := bench.WriteCurveCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(r.Rows)+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), len(r.Rows)+1)
	}
	var sum bytes.Buffer
	r.Summarize(&sum, bench.PaperFig1)
	if !strings.Contains(sum.String(), "concurrent/good ratio") {
		t.Error("summary missing shape metrics")
	}
}

func TestFig3Small(t *testing.T) {
	r, err := bench.Fig3(bench.Fig3Config{Rows: 4, Cols: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 5 {
		t.Fatalf("sweep has %d points", len(r.Rows))
	}
	if r.Rows[0].Faults != 0 {
		t.Error("sweep should start at 0 faults (good-only)")
	}
	// The paper's claims: both series linear, serial much steeper.
	if r.ConcFit.R2 < 0.9 {
		t.Errorf("concurrent series not linear: R2=%f", r.ConcFit.R2)
	}
	if r.SerialFit.R2 < 0.9 {
		t.Errorf("serial series not linear: R2=%f", r.SerialFit.R2)
	}
	if r.SerialVsConcSlope <= 1 {
		t.Errorf("serial slope should exceed concurrent: ratio %f", r.SerialVsConcSlope)
	}
	// Cost must increase with sample size.
	if r.Rows[len(r.Rows)-1].ConcPerPattern <= r.Rows[0].ConcPerPattern {
		t.Error("concurrent cost should grow with faults")
	}
	var buf bytes.Buffer
	if err := bench.WriteFig3CSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "faults,") {
		t.Error("CSV header missing")
	}
	var sum bytes.Buffer
	r.Summarize(&sum)
	if !strings.Contains(sum.String(), "slope ratio") {
		t.Error("summary missing slope ratio")
	}
}

func TestScalingQuick(t *testing.T) {
	r, err := bench.Scaling(true)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's law: good and concurrent scale together; serial scales
	// faster by roughly the fault-count ratio.
	if r.GoodFactor <= 1 || r.ConcFactor <= 1 || r.SerialFactor <= 1 {
		t.Fatalf("factors must exceed 1: %+v", r)
	}
	if r.SerialFactor <= r.ConcFactor {
		t.Errorf("serial factor %f should exceed concurrent factor %f",
			r.SerialFactor, r.ConcFactor)
	}
	var buf bytes.Buffer
	r.Summarize(&buf)
	if !strings.Contains(buf.String(), "scaling factor") {
		t.Error("summary missing")
	}
}

func TestFaultClasses(t *testing.T) {
	rows, err := bench.FaultClasses(small(), 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d classes", len(rows))
	}
	for _, r := range rows {
		if r.Faults == 0 || r.Detected == 0 {
			t.Errorf("class %s: %d faults %d detected", r.Class, r.Faults, r.Detected)
		}
	}
	var buf bytes.Buffer
	bench.WriteFaultClasses(&buf, rows)
	if !strings.Contains(buf.String(), "node stuck-at") {
		t.Error("class table missing rows")
	}
}

func TestAblations(t *testing.T) {
	m := small()
	faults := bench.NodeStuckOnly(m)[:20]
	seq := march.Sequence1(m)

	drop, err := bench.AblationDropping(m, faults, seq)
	if err != nil {
		t.Fatal(err)
	}
	if drop.PenaltyFactor <= 1 {
		t.Errorf("disabling fault dropping should cost more: ×%f", drop.PenaltyFactor)
	}
	if drop.BaselineDetect != drop.AblatedDetect {
		t.Errorf("dropping must not change coverage: %d vs %d",
			drop.BaselineDetect, drop.AblatedDetect)
	}
	var buf bytes.Buffer
	drop.Summarize(&buf)
	if !strings.Contains(buf.String(), "penalty") {
		t.Error("ablation summary missing")
	}
}

// TestFig1Shape runs the full Figure 1 experiment and pins the shape
// claims the reproduction makes: full coverage, concurrency winning over
// serial, most work in the head, tail within an order of magnitude of the
// good circuit. (Exact values are reported in EXPERIMENTS.md.)
func TestFig1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full RAM64 run")
	}
	r, err := bench.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected != r.Faults {
		t.Errorf("coverage %d/%d, want full", r.Detected, r.Faults)
	}
	if r.ConcVsGood < 4 || r.ConcVsGood > 30 {
		t.Errorf("concurrent/good ratio %.1f outside the paper's regime", r.ConcVsGood)
	}
	if r.SerialVsConc < 5 {
		t.Errorf("serial/concurrent ratio %.1f: concurrency should win strongly", r.SerialVsConc)
	}
	if r.HeadWorkFraction < 0.25 {
		t.Errorf("head fraction %.2f: the head should dominate", r.HeadWorkFraction)
	}
	if r.TailSlowdown > 15 {
		t.Errorf("tail slowdown %.1f: the tail should run near good-circuit speed", r.TailSlowdown)
	}
}

// TestFigureWorkGolden pins the concurrent work of Figures 1 and 2 (what
// benchtab reports as conc_work) to the unit. Every counted unit of the
// engine — settles, rounds, vicinities, relaxation steps, adoptions —
// lands in these sums, so a change meant to leave the simulation alone
// must leave them alone. The scaling run's figures are pinned under
// -tags slow (golden_slow_test.go).
func TestFigureWorkGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		fig  func() (*bench.CurveResult, error)
		want int64
	}{
		{"fig1", bench.Fig1, 11_595_940},
		{"fig2", bench.Fig2, 17_470_405},
	} {
		r, err := tc.fig()
		if err != nil {
			t.Fatal(err)
		}
		if r.ConcurrentWork != tc.want {
			t.Errorf("%s: conc_work %d, want %d", tc.name, r.ConcurrentWork, tc.want)
		}
	}
}

// TestSequenceOrderingMatchesPaper: the paper's central Figure-2 claim —
// the shorter sequence 2 costs MORE total concurrent time than sequence 1
// because severe faults stay live longer, and its serial/concurrent
// advantage is smaller.
func TestSequenceOrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("two full RAM64 runs")
	}
	r1, err := bench.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := bench.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if r2.ConcurrentWork <= r1.ConcurrentWork {
		t.Errorf("sequence 2 (%d) should cost more than sequence 1 (%d) despite fewer patterns",
			r2.ConcurrentWork, r1.ConcurrentWork)
	}
	if r2.SerialVsConc >= r1.SerialVsConc {
		t.Errorf("sequence 2's concurrency advantage (%.1f) should be below sequence 1's (%.1f)",
			r2.SerialVsConc, r1.SerialVsConc)
	}
}
