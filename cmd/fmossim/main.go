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

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

func main() {
	netPath := flag.String("net", "", "netlist file (required)")
	faultPath := flag.String("faults", "", "fault list file (default: all storage-node stuck-at faults)")
	patPath := flag.String("patterns", "", "pattern script (required)")
	observe := flag.String("observe", "", "comma-separated observed output nodes (required)")
	verbose := flag.Bool("v", false, "print every detection")
	noDrop := flag.Bool("nodrop", false, "keep simulating detected faults")
	batch := flag.Int("batch", 0, "campaign mode: faults per batch (0 with -shards: split evenly)")
	shards := flag.Int("shards", 0, "campaign mode: concurrent batches (0: GOMAXPROCS)")
	coverageTarget := flag.Float64("coverage-target", 0, "campaign mode: stop once this coverage fraction is reached")
	checkpoint := flag.String("checkpoint", "", "campaign mode: resumable checkpoint file")
	trim := flag.Bool("trim", false, "redundancy trimming: collapse equivalent fault classes and skip the tail of fully-dropped batches (results are byte-identical)")
	snapshotEvery := flag.Int("snapshot-every", 0, "capture a good-state frame every N settings so interrupted batches resume mid-sequence (campaign mode with -checkpoint)")
	flag.Parse()

	if *netPath == "" || *patPath == "" || *observe == "" {
		flag.Usage()
		os.Exit(2)
	}

	nw := readNet(*netPath)
	var outs []netlist.NodeID
	for _, name := range strings.Split(*observe, ",") {
		id := nw.Lookup(strings.TrimSpace(name))
		if id == netlist.NoNode {
			fatal(fmt.Errorf("unknown observed node %q", name))
		}
		outs = append(outs, id)
	}

	var faults []fault.Fault
	if *faultPath == "" {
		faults = fault.NodeStuckFaults(nw, fault.Options{})
	} else {
		f, err := os.Open(*faultPath)
		if err != nil {
			fatal(err)
		}
		faults, err = fault.ReadList(f, nw)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}

	seq := readPatterns(*patPath, nw)

	opts := core.Options{
		Observe:       outs,
		Trim:          *trim,
		SnapshotEvery: *snapshotEvery,
	}
	if *noDrop {
		opts.Drop = core.NeverDrop
	}

	detected := func(int) (core.Detection, bool) { return core.Detection{}, false }
	if *batch > 0 || *shards > 0 || *coverageTarget > 0 || *checkpoint != "" {
		// Interrupting a campaign cancels it cooperatively; completed
		// batches stay in the checkpoint (if any) for the next resume.
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		res, err := campaign.Run(ctx, nw, faults, seq, campaign.Options{
			Sim:            opts,
			BatchSize:      *batch,
			Shards:         *shards,
			CoverageTarget: *coverageTarget,
			CheckpointPath: *checkpoint,
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

func readNet(path string) *netlist.Network {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	nw, err := netlist.Read(f)
	if err != nil {
		fatal(err)
	}
	for _, issue := range netlist.Lint(nw) {
		fmt.Fprintln(os.Stderr, "lint:", issue)
	}
	return nw
}

// readPatterns parses the pattern script (format: switchsim.ParseSequence).
func readPatterns(path string, nw *netlist.Network) *switchsim.Sequence {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	seq, err := switchsim.ParseSequence(f, path, nw)
	if err != nil {
		fatal(err)
	}
	return seq
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmossim:", err)
	os.Exit(1)
}
