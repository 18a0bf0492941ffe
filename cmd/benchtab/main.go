// Entry point; the command is documented in doc.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"fmossim/internal/bench"
	"fmossim/internal/core"
	"fmossim/internal/march"
	"fmossim/internal/ram"
)

// report is the schema of BENCH_results.json.
type report struct {
	// Figures maps a figure name to its headline metrics.
	Figures map[string]map[string]float64 `json:"figures"`
	// WallNS maps a figure name to its wall-clock run time.
	WallNS map[string]int64 `json:"wall_ns"`
	GOOS   string           `json:"goos"`
	GOARCH string           `json:"goarch"`
	NumCPU int              `json:"num_cpu"`
}

func newReport() *report {
	return &report{
		Figures: map[string]map[string]float64{},
		WallNS:  map[string]int64{},
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		NumCPU:  runtime.NumCPU(),
	}
}

func (r *report) add(fig string, start time.Time, metrics map[string]float64) {
	r.Figures[fig] = metrics
	r.WallNS[fig] = time.Since(start).Nanoseconds()
}

// allocCounter snapshots the process-wide cumulative allocation count
// (runtime.MemStats.Mallocs) so each figure can report the allocations its
// run performed. The count is a deterministic property of the workload up
// to minor goroutine-scheduling variance — unlike bytes-in-use, it is not
// perturbed by GC timing.
type allocCounter struct{ start uint64 }

func startAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{start: ms.Mallocs}
}

func (a allocCounter) delta() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - a.start)
}

// figNames are the values -fig accepts.
var figNames = []string{"1", "2", "3", "scaling", "faultclass", "ablation", "all"}

func validFig(name string) bool { return slices.Contains(figNames, name) }

func main() {
	valid := strings.Join(figNames, ", ")
	fig := flag.String("fig", "all", "figure to regenerate: "+valid)
	out := flag.String("out", ".", "output directory for CSV files")
	quick := flag.Bool("quick", false, "use smaller circuit instances (fast smoke runs)")
	jsonOut := flag.Bool("json", false, "also write BENCH_results.json to the output directory")
	flag.Parse()

	if !validFig(*fig) {
		fmt.Fprintf(os.Stderr, "benchtab: unknown -fig %q (valid: %s)\n", *fig, valid)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	all := *fig == "all"
	rep := newReport()

	if all || *fig == "1" {
		fmt.Println("== Figure 1: RAM64, test sequence 1 ==")
		t0 := time.Now()
		ac := startAllocs()
		r, err := bench.Fig1()
		if err != nil {
			fatal(err)
		}
		rep.add("fig1", t0, map[string]float64{
			"allocs":         ac.delta(),
			"conc_vs_good":   r.ConcVsGood,
			"serial_vs_conc": r.SerialVsConc,
			"head_fraction":  r.HeadWorkFraction,
			"tail_slowdown":  r.TailSlowdown,
			"coverage":       core.Coverage(r.Detected, r.Faults),
			"conc_work":      float64(r.ConcurrentWork),
			"conc_ns":        float64(r.ConcurrentNS),
		})
		writeCSV(filepath.Join(*out, "fig1.csv"), func(f *os.File) error {
			return bench.WriteCurveCSV(f, r)
		})
		r.Summarize(os.Stdout, bench.PaperFig1)
		fmt.Println()
	}
	if all || *fig == "2" {
		fmt.Println("== Figure 2: RAM64, test sequence 2 ==")
		t0 := time.Now()
		ac := startAllocs()
		r, err := bench.Fig2()
		if err != nil {
			fatal(err)
		}
		rep.add("fig2", t0, map[string]float64{
			"allocs":         ac.delta(),
			"conc_vs_good":   r.ConcVsGood,
			"serial_vs_conc": r.SerialVsConc,
			"coverage":       core.Coverage(r.Detected, r.Faults),
			"conc_work":      float64(r.ConcurrentWork),
			"conc_ns":        float64(r.ConcurrentNS),
		})
		writeCSV(filepath.Join(*out, "fig2.csv"), func(f *os.File) error {
			return bench.WriteCurveCSV(f, r)
		})
		r.Summarize(os.Stdout, bench.PaperFig2)
		fmt.Println()
	}
	if all || *fig == "3" {
		fmt.Println("== Figure 3: fault-sample sweep ==")
		cfg := bench.Fig3Config{Seed: 1}
		if *quick {
			cfg.Rows, cfg.Cols = 8, 8
		}
		t0 := time.Now()
		ac := startAllocs()
		r, err := bench.Fig3(cfg)
		if err != nil {
			fatal(err)
		}
		rep.add("fig3", t0, map[string]float64{
			"allocs":               ac.delta(),
			"conc_r2":              r.ConcFit.R2,
			"serial_r2":            r.SerialFit.R2,
			"serial_vs_conc_slope": r.SerialVsConcSlope,
		})
		writeCSV(filepath.Join(*out, "fig3.csv"), func(f *os.File) error {
			return bench.WriteFig3CSV(f, r)
		})
		r.Summarize(os.Stdout)
		fmt.Println()
	}
	if all || *fig == "scaling" {
		fmt.Println("== Scaling: RAM64 vs RAM256 ==")
		t0 := time.Now()
		ac := startAllocs()
		r, err := bench.Scaling(*quick)
		if err != nil {
			fatal(err)
		}
		rep.add("scaling", t0, map[string]float64{
			"allocs":        ac.delta(),
			"good_factor":   r.GoodFactor,
			"conc_factor":   r.ConcFactor,
			"serial_factor": r.SerialFactor,
			"good_work":     float64(r.Large.GoodWork),
			"conc_work":     float64(r.Large.ConcurrentWork),
		})
		r.Summarize(os.Stdout)
		fmt.Println()
	}
	if all || *fig == "faultclass" {
		fmt.Println("== §5 validation: fault classes (RAM64, sequence 1) ==")
		rows, err := bench.FaultClasses(ram.RAM64(), 30, 7)
		if err != nil {
			fatal(err)
		}
		bench.WriteFaultClasses(os.Stdout, rows)
		fmt.Println()
	}
	if all || *fig == "ablation" {
		fmt.Println("== Ablations (RAM64) ==")
		m := ram.RAM64()
		faults := bench.NodeStuckOnly(m)
		seq := march.Sequence1(m)
		if r, err := bench.AblationDropping(m, faults, seq); err == nil {
			r.Summarize(os.Stdout)
		} else {
			fatal(err)
		}
		fmt.Println()
	}

	if *jsonOut {
		path := filepath.Join(*out, "BENCH_results.json")
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

func writeCSV(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}
