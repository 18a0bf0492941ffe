package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/stats"
)

// Fig3Row is one x-position of Figure 3: a fault-sample size with the
// average per-pattern cost of concurrent and (estimated) serial
// simulation over the whole sequence.
type Fig3Row struct {
	Faults int
	// ConcPerPattern is the concurrent run's average work units per
	// pattern; SerialPerPattern the paper-style serial estimate divided
	// by the pattern count. NSPerPattern is wall-clock.
	ConcPerPattern, SerialPerPattern float64
	NSPerPattern                     float64
	Detected                         int
}

// Fig3Result is the full sweep with its linearity analysis.
type Fig3Result struct {
	Circuit  string
	Patterns int
	Universe int
	Rows     []Fig3Row

	// Least-squares fits of cost vs sample size. The paper reports both
	// relationships as linear, with the serial line ≈85× the concurrent.
	ConcFit, SerialFit stats.Fit
	SerialVsConcSlope  float64
	// Residuals of the linear fits (max |error| / max value).
	ConcResidual, SerialResidual float64
}

// Fig3Config parameterizes the sweep.
type Fig3Config struct {
	// Samples lists the fault-sample sizes; nil selects the paper-like
	// default sweep over the full universe.
	Samples []int
	// Seed drives the random fault sampling.
	Seed int64
	// Rows/Cols override the RAM size (default 16×16 = RAM256).
	Rows, Cols int
}

// Fig3 reproduces Figure 3: RAM256 simulated for different numbers of
// randomly selected faults (node stuck-at and bit-line shorts), measuring
// the average cost per pattern of concurrent simulation and the paper's
// serial estimate; both grow linearly in the number of faults.
func Fig3(cfg Fig3Config) (*Fig3Result, error) {
	rows, cols := cfg.Rows, cfg.Cols
	if rows == 0 {
		rows, cols = 16, 16
	}
	m := ram.New(ram.Config{Rows: rows, Cols: cols})
	seq := march.Sequence1(m)
	universe := PaperFaults(m)

	samples := cfg.Samples
	if samples == nil {
		n := len(universe)
		samples = []int{0, n / 8, n / 4, 3 * n / 8, n / 2, 5 * n / 8, 3 * n / 4, 7 * n / 8, n}
	}

	// Good-only reference (also the 0-fault point and the estimator's
	// per-pattern cost basis).
	goodRes, err := goodOnly(m, seq)
	if err != nil {
		return nil, err
	}

	r := &Fig3Result{
		Circuit:  fmt.Sprintf("RAM%d", m.Conf.Bits()),
		Patterns: len(seq.Patterns),
		Universe: len(universe),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nPat := float64(len(seq.Patterns))

	for _, n := range samples {
		var row Fig3Row
		row.Faults = n
		if n == 0 {
			row.ConcPerPattern = float64(goodRes.GoodWork) / nPat
			row.SerialPerPattern = float64(goodRes.GoodWork) / nPat
		} else {
			fs := fault.Sample(universe, n, rng)
			sim, err := core.New(m.Net, fs, core.Options{Observe: []netlist.NodeID{m.DataOut}})
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			res := sim.Run(seq)
			row.NSPerPattern = float64(time.Since(t0).Nanoseconds()) / nPat
			row.Detected = res.Detected
			row.ConcPerPattern = float64(res.TotalWork()) / nPat
			// The estimator charges only faulty-circuit time; a serial
			// campaign also simulates the good circuit once for the
			// reference trace.
			row.SerialPerPattern = float64(serialEstimate(sim, len(fs), goodRes)+goodRes.GoodWork) / nPat
		}
		r.Rows = append(r.Rows, row)
	}

	xs := make([]float64, len(r.Rows))
	yc := make([]float64, len(r.Rows))
	ys := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		xs[i] = float64(row.Faults)
		yc[i] = row.ConcPerPattern
		ys[i] = row.SerialPerPattern
	}
	r.ConcFit = stats.LinearFit(xs, yc)
	r.SerialFit = stats.LinearFit(xs, ys)
	r.SerialVsConcSlope = stats.Ratio(r.SerialFit.Slope, r.ConcFit.Slope)
	r.ConcResidual = stats.MaxAbsRelErr(xs, yc, r.ConcFit)
	r.SerialResidual = stats.MaxAbsRelErr(xs, ys, r.SerialFit)
	return r, nil
}

// WriteFig3CSV emits the sweep series.
func WriteFig3CSV(w io.Writer, r *Fig3Result) error {
	if _, err := fmt.Fprintln(w, "faults,conc_work_per_pattern,serial_est_work_per_pattern,ns_per_pattern,detected"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%d,%.1f,%.1f,%.1f,%d\n",
			row.Faults, row.ConcPerPattern, row.SerialPerPattern, row.NSPerPattern, row.Detected); err != nil {
			return err
		}
	}
	return nil
}

// Summarize writes the linearity analysis next to the paper's claims.
func (r *Fig3Result) Summarize(w io.Writer) {
	fmt.Fprintf(w, "%s: %d patterns, fault universe %d\n", r.Circuit, r.Patterns, r.Universe)
	fmt.Fprintf(w, "  %-34s %12s %10s\n", "metric", "measured", "paper")
	fmt.Fprintf(w, "  %-34s %12.3f %10s\n", "concurrent linear fit R²", r.ConcFit.R2, "linear")
	fmt.Fprintf(w, "  %-34s %12.3f %10s\n", "serial linear fit R²", r.SerialFit.R2, "linear")
	fmt.Fprintf(w, "  %-34s %12.1f %10.0f\n", "serial/concurrent slope ratio", r.SerialVsConcSlope, 85.0)
	fmt.Fprintf(w, "  %-34s %12.3f %10s\n", "concurrent max rel residual", r.ConcResidual, "-")
	fmt.Fprintf(w, "  %-34s %12.3f %10s\n", "serial max rel residual", r.SerialResidual, "-")
}
