// Entry point and flag binding; the command is documented in doc.go.
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
	"unicode"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/distrib"
	"fmossim/internal/netlist"
	"fmossim/internal/server"
)

// config is one parsed command line: the campaign spec, the coordinator
// options, and the workload the spec resolved to.
type config struct {
	spec       server.JobSpec
	dist       distrib.Options
	checkpoint string
	verbose    bool
	wl         *server.Workload
}

// parse binds the flags straight to the campaign spec fmossimd takes and
// to the coordinator options, refuses a flag the chosen mode does not
// use, and resolves the spec through server.ResolveSpec, the code that
// resolves a submitted job. A flag syntax error is returned after the
// flag set has printed it with the usage, and -h returns flag.ErrHelp.
func parse(args []string) (*config, error) {
	var c config
	spec := &c.spec
	fs := flag.NewFlagSet("fmossim", flag.ContinueOnError)
	fs.StringVar(&spec.Workload, "workload", "", "built-in workload: ram64 or ram256")
	fs.StringVar(&spec.Sequence, "sequence", "", "built-in test sequence: sequence1 or sequence2")
	fs.IntVar(&spec.MaxPatterns, "max-patterns", 0, "truncate the sequence to its first N patterns")
	fs.IntVar(&spec.SampleEvery, "sample-every", 0, "keep every k-th fault (statistical sampling)")
	fs.StringVar(&spec.FaultModel, "fault-model", "", "fault universe: paper or stuck")
	netPath := fs.String("net", "", "netlist file (instead of -workload)")
	faultPath := fs.String("faults", "", "fault list file (default: all storage-node stuck-at faults)")
	patPath := fs.String("patterns", "", "pattern script (with -net)")
	observe := fs.String("observe", "", "comma-separated observed output nodes (required with -net)")
	fs.StringVar(&spec.Drop, "drop", "", "fault-dropping policy: any, hard, or never")
	fs.BoolVar(&c.verbose, "v", false, "print every detection")
	fs.IntVar(&spec.BatchSize, "batch", 0, "campaign mode: faults per batch (0 with -shards: split evenly; with -workers: across worker slots)")
	fs.IntVar(&spec.Shards, "shards", 0, "campaign mode: concurrent batches (0: GOMAXPROCS)")
	fs.Float64Var(&spec.CoverageTarget, "coverage-target", 0, "campaign mode: stop once this coverage fraction is reached")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "campaign mode: resumable checkpoint file")
	fs.IntVar(&spec.Workers, "sim-workers", 0, "simulator workers per batch (with -workers: per shard, on each remote)")
	workers := fs.String("workers", "", "comma-separated worker base URLs (distributed mode)")
	fs.IntVar(&c.dist.InFlight, "in-flight", 0, "concurrent shards per worker (default 2)")
	fs.IntVar(&c.dist.MaxAttempts, "attempts", 0, "dispatch attempts per shard before the campaign fails (default 3)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	for _, w := range strings.FieldsFunc(*workers, isListSep) {
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		c.dist.Workers = append(c.dist.Workers, strings.TrimRight(w, "/"))
	}
	c.dist.BatchSize, c.dist.SimWorkers = spec.BatchSize, spec.Workers
	// The other mode's flags are refused: distributed checkpoints do not
	// exist, and a local campaign dispatches nothing.
	refused, mode := []string{"in-flight", "attempts"}, "distributed (with -workers)"
	if c.dist.Workers != nil {
		refused, mode = []string{"shards", "checkpoint"}, "local (without -workers)"
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range refused {
		if set[name] {
			return nil, fmt.Errorf("-%s is for %s campaigns only", name, mode)
		}
	}

	for _, f := range []struct{ path, dst *string }{{netPath, &spec.Netlist}, {patPath, &spec.Patterns}, {faultPath, &spec.Faults}} {
		if *f.path != "" {
			data, err := os.ReadFile(*f.path)
			if err != nil {
				return nil, err
			}
			*f.dst = string(data)
		}
	}
	// An empty Faults selects the default universe; a file that says
	// nothing must not.
	if *faultPath != "" && spec.Faults == "" {
		return nil, fmt.Errorf("fault list %s is empty", *faultPath)
	}
	spec.Observe = strings.FieldsFunc(*observe, isListSep)
	var err error
	if c.wl, err = server.ResolveSpec(spec); err != nil {
		return nil, err
	}
	// An inline sequence is named after its file: the summary prints the
	// name and a checkpoint is keyed by it.
	if spec.Netlist != "" {
		c.wl.Seq.Name = *patPath
	}
	return &c, nil
}

func main() {
	c, err := parse(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fatal(err)
	}
	for _, issue := range netlist.Lint(c.wl.Net) {
		fmt.Fprintln(os.Stderr, "lint:", issue)
	}

	start := time.Now()
	var (
		res      *core.Result
		camp     *campaign.Result
		detected func(int) (core.Detection, bool)
	)
	if len(c.dist.Workers) > 0 || c.spec.BatchSize > 0 || c.spec.Shards > 0 || c.spec.CoverageTarget > 0 || c.checkpoint != "" {
		if camp, err = runCampaign(c); err != nil {
			fatal(err)
		}
		res, detected = &camp.Run, camp.Detected
	} else {
		sim, err := core.New(c.wl.Net, c.wl.Faults, c.spec.SimOptions(c.wl))
		if err != nil {
			fatal(err)
		}
		res, detected = sim.Run(c.wl.Seq), sim.Detected
	}
	// distrib.Run resolves the spec again and names an inline sequence
	// after no file; the summary names the one resolved here.
	res.Sequence = c.wl.Seq.Name
	res.Summary(os.Stdout)
	if camp != nil {
		fmt.Printf("  campaign: %d batches (%d run, %d resumed, %d skipped)\n",
			camp.Batches, camp.BatchesRun, camp.BatchesResumed, camp.BatchesSkipped)
	}
	// The result carries no clock; the time is this process's, taken here.
	fmt.Printf("  wall: %.3fs\n", time.Since(start).Seconds())

	if c.verbose {
		for i, f := range c.wl.Faults {
			if d, ok := detected(i); ok {
				fmt.Printf("  detected %-40s pattern %4d setting %d: %s vs good %s at %s\n",
					f.Describe(c.wl.Net), d.Pattern, d.Setting, d.Faulty, d.Good, c.wl.Net.Name(d.Output))
			} else {
				fmt.Printf("  UNDETECTED %s\n", f.Describe(c.wl.Net))
			}
		}
	}
}

// runCampaign runs a campaign on this machine, or across the workers
// when there are any. Interrupting it cancels it cooperatively: completed
// batches stay in the checkpoint (if any) for the next resume, and a
// distributed run DELETEs every outstanding worker job.
func runCampaign(c *config) (*campaign.Result, error) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if len(c.dist.Workers) == 0 {
		return campaign.Run(ctx, c.wl.Net, c.wl.Faults, c.wl.Seq, campaign.Options{
			Sim:            c.spec.SimOptions(c.wl),
			BatchSize:      c.spec.BatchSize,
			Shards:         c.spec.Shards,
			CoverageTarget: c.spec.CoverageTarget,
			CheckpointPath: c.checkpoint,
			Tables:         c.wl.Tables,
		})
	}

	// Progress is delivered serialized, so plain locals are safe; print
	// a coverage line at most twice a second.
	var lastPrint time.Time
	c.dist.Progress = func(ev campaign.ProgressEvent) {
		if ev.BatchDone || time.Since(lastPrint) >= 500*time.Millisecond {
			lastPrint = time.Now()
			fmt.Fprintf(os.Stderr, "\rcoverage %6.2f%%  (%d/%d detected, %d/%d shards)   ",
				100*ev.Coverage(), ev.Detected, ev.NumFaults, ev.BatchesDone, ev.Batches)
		}
	}
	c.dist.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "\r"+format+"\n", args...) }
	res, err := distrib.Run(ctx, c.spec, c.dist)
	fmt.Fprintln(os.Stderr) // ends the coverage line
	return res, err
}

// isListSep separates the entries of a list flag, so that blanks around
// an entry and empty entries fall away.
func isListSep(r rune) bool { return r == ',' || unicode.IsSpace(r) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fmossim:", err)
	os.Exit(1)
}
