// Entry point and flag handling for both modes; the server/coordinator
// split is documented in doc.go.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/distrib"
	"fmossim/internal/server"
)

func main() {
	// Server mode.
	var cfg server.Config
	addr := flag.String("addr", ":8458", "listen address")
	flag.IntVar(&cfg.MaxJobs, "max-jobs", 2, "campaigns running concurrently")
	flag.IntVar(&cfg.QueueDepth, "queue", 16, "queued (accepted, not started) jobs before shedding with 429")
	flag.DurationVar(&cfg.RetryAfter, "retry-after", time.Second, "Retry-After hint on 429 responses")
	flag.DurationVar(&cfg.StreamInterval, "stream-interval", 100*time.Millisecond, "minimum spacing between streamed snapshots")
	flag.IntVar(&cfg.KeepTerminal, "keep-terminal", 64, "finished jobs retained for status queries before eviction")

	// Coordinator mode: the flags bind straight to the campaign spec and
	// the coordinator options they configure.
	var (
		spec  server.JobSpec
		dopts distrib.Options
	)
	coordinator := flag.Bool("coordinator", false, "run one distributed campaign over -workers and exit")
	workers := flag.String("workers", "", "comma-separated worker base URLs (coordinator mode)")
	flag.StringVar(&spec.Workload, "workload", "", "built-in workload: ram64 or ram256")
	flag.StringVar(&spec.Sequence, "sequence", "", "built-in test sequence: sequence1 or sequence2")
	flag.IntVar(&spec.MaxPatterns, "max-patterns", 0, "truncate the sequence to its first N patterns")
	flag.IntVar(&spec.SampleEvery, "sample-every", 0, "keep every k-th fault (statistical sampling)")
	flag.StringVar(&spec.FaultModel, "fault-model", "", "fault universe: paper or stuck")
	netPath := flag.String("net", "", "inline netlist file (instead of -workload)")
	patPath := flag.String("patterns", "", "inline pattern script file")
	observe := flag.String("observe", "", "comma-separated observed output nodes (inline netlist)")
	flag.StringVar(&spec.Drop, "drop", "", "fault-dropping policy: any, hard, or never")
	flag.IntVar(&dopts.BatchSize, "batch", 0, "faults per shard (0: split across worker slots)")
	flag.Float64Var(&spec.CoverageTarget, "coverage-target", 0, "stop cluster-wide once this coverage is reached")
	flag.IntVar(&dopts.SimWorkers, "sim-workers", 0, "per-shard simulator workers on each remote")
	flag.IntVar(&dopts.InFlight, "in-flight", 0, "concurrent shards per worker (default 2)")
	flag.IntVar(&dopts.MaxAttempts, "attempts", 0, "dispatch attempts per shard before the campaign fails (default 3)")
	flag.BoolVar(&spec.Trim, "trim", false, "redundancy trimming on every shard (results are byte-identical)")
	flag.Parse()

	if *coordinator {
		if *workers == "" {
			fatal(fmt.Errorf("-coordinator requires -workers"))
		}
		for _, w := range strings.Split(*workers, ",") {
			w = strings.TrimSpace(w)
			if w == "" {
				continue
			}
			if !strings.Contains(w, "://") {
				w = "http://" + w
			}
			dopts.Workers = append(dopts.Workers, strings.TrimRight(w, "/"))
		}
		if *netPath != "" {
			spec.Netlist = readFile(*netPath)
			spec.Patterns = readFile(*patPath)
			for _, n := range strings.Split(*observe, ",") {
				if n = strings.TrimSpace(n); n != "" {
					spec.Observe = append(spec.Observe, n)
				}
			}
		}
		runCoordinator(spec, dopts)
		return
	}

	mgr := server.NewManager(cfg)
	srv := &http.Server{Addr: *addr, Handler: mgr.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "fmossimd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "fmossimd: listening on %s (max %d concurrent jobs, queue %d)\n",
		*addr, cfg.MaxJobs, cfg.QueueDepth)
	err := srv.ListenAndServe()
	// ListenAndServe returns as soon as Shutdown is called; cancel and
	// drain every job (which lets in-flight stream handlers write their
	// terminal lines), then wait for Shutdown to finish those handlers
	// off before exiting.
	mgr.Close()
	if !errors.Is(err, http.ErrServerClosed) && err != nil {
		fmt.Fprintln(os.Stderr, "fmossimd:", err)
		os.Exit(1)
	}
	stop()
	<-shutdownDone
}

// runCoordinator executes one distributed campaign and prints the merged
// summary (the same shape cmd/fmossim prints for a local campaign, so
// the two are directly diffable).
func runCoordinator(spec server.JobSpec, dopts distrib.Options) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Progress is delivered serialized, so plain locals are safe; print
	// a coverage line at most twice a second.
	var lastPrint time.Time
	dopts.Progress = func(ev campaign.ProgressEvent) {
		if time.Since(lastPrint) < 500*time.Millisecond && !ev.BatchDone {
			return
		}
		lastPrint = time.Now()
		fmt.Fprintf(os.Stderr, "\rcoverage %6.2f%%  (%d/%d detected, %d/%d shards)   ",
			100*ev.Coverage(), ev.Detected, ev.NumFaults, ev.BatchesDone, ev.Batches)
	}

	start := time.Now()
	dopts.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "\r"+format+"\n", args...)
	}
	res, err := distrib.Run(ctx, spec, dopts)
	fmt.Fprintln(os.Stderr)
	if err != nil {
		fatal(err)
	}
	res.Run.Summary(os.Stdout)
	fmt.Printf("  campaign: %d batches (%d run, %d skipped) over %d workers in %.3fs\n",
		res.Batches, res.BatchesRun, res.BatchesSkipped, len(dopts.Workers), time.Since(start).Seconds())
}

func readFile(path string) string {
	if path == "" {
		fatal(fmt.Errorf("inline netlists need both -net and -patterns"))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmossimd:", err)
	os.Exit(1)
}
