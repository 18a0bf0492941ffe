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
	addr := flag.String("addr", ":8458", "listen address")
	maxJobs := flag.Int("max-jobs", 2, "campaigns running concurrently")
	queue := flag.Int("queue", 16, "queued (accepted, not started) jobs before shedding with 429")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	streamInterval := flag.Duration("stream-interval", 100*time.Millisecond, "minimum spacing between streamed snapshots")
	keepTerminal := flag.Int("keep-terminal", 64, "finished jobs retained for status queries before eviction")

	// Coordinator mode.
	coordinator := flag.Bool("coordinator", false, "run one distributed campaign over -workers and exit")
	workers := flag.String("workers", "", "comma-separated worker base URLs (coordinator mode)")
	workload := flag.String("workload", "", "built-in workload: ram64 or ram256")
	sequence := flag.String("sequence", "", "built-in test sequence: sequence1 or sequence2")
	maxPatterns := flag.Int("max-patterns", 0, "truncate the sequence to its first N patterns")
	sampleEvery := flag.Int("sample-every", 0, "keep every k-th fault (statistical sampling)")
	faultModel := flag.String("fault-model", "", "fault universe: paper or stuck")
	netPath := flag.String("net", "", "inline netlist file (instead of -workload)")
	patPath := flag.String("patterns", "", "inline pattern script file")
	observe := flag.String("observe", "", "comma-separated observed output nodes (inline netlist)")
	drop := flag.String("drop", "", "fault-dropping policy: any, hard, or never")
	batch := flag.Int("batch", 0, "faults per shard (0: split across worker slots)")
	coverageTarget := flag.Float64("coverage-target", 0, "stop cluster-wide once this coverage is reached")
	simWorkers := flag.Int("sim-workers", 0, "per-shard simulator workers on each remote")
	inFlight := flag.Int("in-flight", 0, "concurrent shards per worker (default 2)")
	attempts := flag.Int("attempts", 0, "dispatch attempts per shard before the campaign fails (default 3)")
	trim := flag.Bool("trim", false, "redundancy trimming on every shard (results are byte-identical)")
	flag.Parse()

	if *coordinator {
		runCoordinator(coordinatorConfig{
			workers: *workers, workload: *workload, sequence: *sequence,
			maxPatterns: *maxPatterns, sampleEvery: *sampleEvery, faultModel: *faultModel,
			netPath: *netPath, patPath: *patPath, observe: *observe, drop: *drop,
			batch: *batch, coverageTarget: *coverageTarget,
			simWorkers: *simWorkers, inFlight: *inFlight, attempts: *attempts,
			trim: *trim,
		})
		return
	}

	mgr := server.NewManager(server.Config{
		MaxJobs:        *maxJobs,
		QueueDepth:     *queue,
		RetryAfter:     *retryAfter,
		StreamInterval: *streamInterval,
		KeepTerminal:   *keepTerminal,
	})
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
		*addr, *maxJobs, *queue)
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

type coordinatorConfig struct {
	workers, workload, sequence    string
	maxPatterns, sampleEvery       int
	faultModel, netPath, patPath   string
	observe, drop                  string
	batch                          int
	coverageTarget                 float64
	simWorkers, inFlight, attempts int
	trim                           bool
}

// runCoordinator executes one distributed campaign and prints the merged
// summary (the same shape cmd/fmossim prints for a local campaign, so
// the two are directly diffable).
func runCoordinator(cfg coordinatorConfig) {
	if cfg.workers == "" {
		fatal(fmt.Errorf("-coordinator requires -workers"))
	}
	var urls []string
	for _, w := range strings.Split(cfg.workers, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		urls = append(urls, strings.TrimRight(w, "/"))
	}

	spec := server.JobSpec{
		Workload:       cfg.workload,
		Sequence:       cfg.sequence,
		MaxPatterns:    cfg.maxPatterns,
		SampleEvery:    cfg.sampleEvery,
		FaultModel:     cfg.faultModel,
		Drop:           cfg.drop,
		CoverageTarget: cfg.coverageTarget,
		Trim:           cfg.trim,
	}
	if cfg.netPath != "" {
		spec.Netlist = readFile(cfg.netPath)
		spec.Patterns = readFile(cfg.patPath)
		for _, n := range strings.Split(cfg.observe, ",") {
			if n = strings.TrimSpace(n); n != "" {
				spec.Observe = append(spec.Observe, n)
			}
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Progress is delivered serialized, so plain locals are safe; print
	// a coverage line at most twice a second.
	var lastPrint time.Time
	progress := func(ev campaign.ProgressEvent) {
		if time.Since(lastPrint) < 500*time.Millisecond && !ev.BatchDone {
			return
		}
		lastPrint = time.Now()
		fmt.Fprintf(os.Stderr, "\rcoverage %6.2f%%  (%d/%d detected, %d/%d shards)   ",
			100*ev.Coverage(), ev.Detected, ev.NumFaults, ev.BatchesDone, ev.Batches)
	}

	start := time.Now()
	res, err := distrib.Run(ctx, spec, distrib.Options{
		Workers:     urls,
		InFlight:    cfg.inFlight,
		BatchSize:   cfg.batch,
		SimWorkers:  cfg.simWorkers,
		MaxAttempts: cfg.attempts,
		Progress:    progress,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "\r"+format+"\n", args...)
		},
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		fatal(err)
	}
	res.Run.Summary(os.Stdout)
	fmt.Printf("  campaign: %d batches (%d run, %d skipped) over %d workers in %.3fs\n",
		res.Batches, res.BatchesRun, res.BatchesSkipped, len(urls), time.Since(start).Seconds())
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
