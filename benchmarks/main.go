package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one untraced run
// measures.
const runSeconds = 20

// options is the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	corrupt  bool
	aa       int
	seeds    int
	pair     string
	manifest bool
	baseline bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: shuffles the fault universe, picks the duplicated faults, orders the burst's jobs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long an untraced run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer pass instead of the timed end-to-end one")
	flag.BoolVar(&o.quick, "quick", false, "RAM64 stand-ins, 96 patterns, two gradings, one burst round: a smoke run")
	flag.BoolVar(&o.corrupt, "corrupt", false, "corrupt one verdict before checking it: the run must fail")
	flag.IntVar(&o.aa, "aa", 0, "run the whole untraced benchmark in this many sets and compare the sets' medians")
	flag.IntVar(&o.seeds, "seeds", 1, "with -aa or -pair: runs per set and workload, one seed each, counting up from -seed")
	flag.StringVar(&o.pair, "pair", "", "other harness binary: run interleaved pairs of it and this one (-seeds pairs per workload, at least ten to claim a gain)")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the harness declares it and exit")
	flag.BoolVar(&o.baseline, "baseline", false, "run every workload untraced, then traced, and collect the reports in benchmarks/out/baseline.json")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := dispatch(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// findOutDir returns benchmarks/out under the checkout root, the nearest
// directory at or above the working directory that holds BENCHMARK.json,
// so that the harness writes to the same place when started from the root
// (run.sh) and from benchmarks/ (go run .).
func findOutDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Join(dir, "benchmarks", "out"), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory: run from inside the checkout")
		}
		dir = parent
	}
}

func dispatch(ctx context.Context, o options) error {
	if o.manifest {
		doc, err := manifest(workloads, runSeconds)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	}
	outDir, err := findOutDir()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	seeds := max(o.seeds, 1)
	switch {
	case o.pair != "":
		return runPairs(ctx, o.pair, o.workload, o.seed, o.seconds, seeds)
	case o.aa > 0:
		return runSets(ctx, o.aa, o.workload, o.seed, o.seconds, seeds)
	case o.baseline:
		return runAll(ctx, o, []bool{false, true}, outDir, "baseline.json")
	case o.workload == "":
		return runAll(ctx, o, []bool{o.trace == 1}, outDir, "")
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rep, err := run(ctx, config{
		workload: w, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		quick: o.quick, corrupt: o.corrupt, outDir: outDir,
	})
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if err := rep.save(outDir); err != nil {
		return err
	}
	// The driver reads the last line of standard output.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// print writes the human-readable form: every metric by name with its
// unit, in declaration order, plus sample counts and quartiles.
func (r *report) print(w io.Writer) {
	mode, decls := "untraced", endToEnd
	if r.Trace {
		mode, decls = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  (%d faults x %d patterns, parallelism %d, %d cpu, %s)\n",
		r.Workload, r.Seed, mode, r.Faults, r.Patterns, r.Parallelism, r.NumCPU, r.GoVersion)
	for _, d := range decls {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-36s %16.6f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if len(r.Samples) > 0 {
		var raw []float64
		steady := 0
		for _, w := range r.Samples {
			raw = append(raw, w.Raw)
			if w.steady() {
				steady++
			}
		}
		fmt.Fprintf(w, "%-36s n=%d  q1 %.4f  median %.4f  q3 %.4f s (%d steady; as measured: median %.4f s)", "timed samples", len(r.Samples), r.Quartiles[0], r.Quartiles[1], r.Quartiles[2], steady, median(raw))
		if r.P90 > 0 {
			fmt.Fprintf(w, "  p90 %.4f s", r.P90)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-36s %d of %d failed (failed_fraction %.4f); reference took %.2f s\n",
		"operations", r.Failed, r.Attempted, float64(r.Failed)/float64(max(r.Attempted, 1)), r.ReferenceS)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	if r.traceTable != "" {
		fmt.Fprint(w, r.traceTable)
	}
}

// path is where the run's full report goes, beside the traces.
func (r *report) path(dir string) string {
	name := "result-" + r.Workload
	if r.Trace {
		name += "-trace"
	}
	return filepath.Join(dir, name+".json")
}

func (r *report) save(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.path(dir), append(data, '\n'), 0o644)
}

// runAll runs every workload once per entry of traces, each run in its
// own child process so that peak memory and GC state are per workload,
// and fails if any run did. With saveAs set, the children's full reports
// are collected into that one file under outDir.
func runAll(ctx context.Context, o options, traces []bool, outDir, saveAs string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	var reports []json.RawMessage
	for _, trace := range traces {
		for _, w := range workloads {
			args := childArgs(w.name, o.seed, o.seconds, trace)
			if o.quick {
				args = append(args, "-quick")
			}
			if _, err := runChild(ctx, self, args, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "benchmarks: %s: %v\n", w.name, err)
				failed++
				continue
			}
			if saveAs != "" {
				data, err := os.ReadFile((&report{Workload: w.name, Trace: trace}).path(outDir))
				if err != nil {
					return err
				}
				reports = append(reports, data)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload runs failed", failed)
	}
	if saveAs == "" {
		return nil
	}
	data, err := json.MarshalIndent(map[string]any{"runs": reports}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, saveAs), append(data, '\n'), 0o644)
}
