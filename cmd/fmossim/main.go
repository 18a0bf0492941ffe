// Entry point; the command is documented in doc.go.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/netlist"
	"fmossim/internal/server"
)

func main() {
	// The flags bind straight to the campaign spec fmossimd takes, so both
	// commands resolve circuit, sequence, observed nodes and fault universe
	// through server.ResolveSpec.
	var spec server.JobSpec
	netPath := flag.String("net", "", "netlist file (required)")
	faultPath := flag.String("faults", "", "fault list file (default: all storage-node stuck-at faults)")
	patPath := flag.String("patterns", "", "pattern script (required)")
	observe := flag.String("observe", "", "comma-separated observed output nodes (required)")
	verbose := flag.Bool("v", false, "print every detection")
	noDrop := flag.Bool("nodrop", false, "keep simulating detected faults")
	flag.IntVar(&spec.BatchSize, "batch", 0, "campaign mode: faults per batch (0 with -shards: split evenly)")
	flag.IntVar(&spec.Shards, "shards", 0, "campaign mode: concurrent batches (0: GOMAXPROCS)")
	flag.Float64Var(&spec.CoverageTarget, "coverage-target", 0, "campaign mode: stop once this coverage fraction is reached")
	checkpoint := flag.String("checkpoint", "", "campaign mode: resumable checkpoint file")
	flag.BoolVar(&spec.Trim, "trim", false, "redundancy trimming: collapse equivalent fault classes and skip the tail of fully-dropped batches (results are byte-identical)")
	flag.Parse()

	if *netPath == "" || *patPath == "" || *observe == "" {
		flag.Usage()
		os.Exit(2)
	}
	spec.Netlist = readFile(*netPath)
	spec.Patterns = readFile(*patPath)
	if *faultPath != "" {
		// An empty Faults selects the default universe; a file that says
		// nothing must not.
		if spec.Faults = readFile(*faultPath); spec.Faults == "" {
			fatal(fmt.Errorf("fault list %s is empty", *faultPath))
		}
	}
	spec.Observe = strings.Split(*observe, ",")
	if *noDrop {
		spec.Drop = "never"
	}

	wl, err := server.ResolveSpec(&spec)
	if err != nil {
		fatal(err)
	}
	nw, faults, seq := wl.Net, wl.Faults, wl.Seq
	// The sequence is named after its file: the summary prints the name and
	// a checkpoint is keyed by it.
	seq.Name = *patPath
	for _, issue := range netlist.Lint(nw) {
		fmt.Fprintln(os.Stderr, "lint:", issue)
	}

	opts := spec.SimOptions(wl)
	detected := func(int) (core.Detection, bool) { return core.Detection{}, false }
	start := time.Now()
	if spec.BatchSize > 0 || spec.Shards > 0 || spec.CoverageTarget > 0 || *checkpoint != "" {
		// Interrupting a campaign cancels it cooperatively; completed
		// batches stay in the checkpoint (if any) for the next resume.
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		res, err := campaign.Run(ctx, nw, faults, seq, campaign.Options{
			Sim:            opts,
			BatchSize:      spec.BatchSize,
			Shards:         spec.Shards,
			CoverageTarget: spec.CoverageTarget,
			CheckpointPath: *checkpoint,
			Tables:         wl.Tables,
		})
		if err != nil {
			fatal(err)
		}
		res.Run.Summary(os.Stdout)
		fmt.Printf("  campaign: %d batches (%d run, %d resumed, %d skipped)\n",
			res.Batches, res.BatchesRun, res.BatchesResumed, res.BatchesSkipped)
		detected = res.Detected
	} else {
		sim, err := core.New(nw, faults, opts)
		if err != nil {
			fatal(err)
		}
		res := sim.Run(seq)
		res.Summary(os.Stdout)
		detected = sim.Detected
	}
	// The result carries no clock; the time is this process's, taken here.
	fmt.Printf("  wall: %.3fs\n", time.Since(start).Seconds())

	if *verbose {
		for i := range faults {
			if d, ok := detected(i); ok {
				fmt.Printf("  detected %-40s pattern %4d setting %d: %s vs good %s at %s\n",
					faults[i].Describe(nw), d.Pattern, d.Setting, d.Faulty, d.Good, nw.Name(d.Output))
			} else {
				fmt.Printf("  UNDETECTED %s\n", faults[i].Describe(nw))
			}
		}
	}
}

func readFile(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmossim:", err)
	os.Exit(1)
}
