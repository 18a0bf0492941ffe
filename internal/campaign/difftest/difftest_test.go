// Package difftest is the differential equivalence harness of the
// campaign engine: seeded random execution configurations — circuit
// size, test sequence, fault-universe mix, worker count, batching,
// sharding, and mid-campaign interrupt/resume points — are cross-checked
// byte-for-byte against a reference that runs every fault in a batch of
// its own over the same workload. Every batch is trimmed, and a batch of
// one fault has nothing to collapse, so the reference is the untrimmed
// run.
//
// The property under test is the repo's determinism contract: every
// execution shape produces the identical merged result — identical
// detections, divergence records, per-pattern statistics and counted
// work — so any scheduling, packing, trimming, or resume bug surfaces as
// a byte diff, not a statistical anomaly. The default `go test` run
// checks a bounded pseudo-random sample; `go test -tags slow` sweeps a
// larger lattice (see scale_slow_test.go).
package difftest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// Case is one randomized execution configuration.
type Case struct {
	Rows, Cols  int // RAM geometry (powers of two)
	Seq2        bool
	MaxPatterns int // 0 = full sequence
	FaultMix    int // 0 plain stuck-at, 1 overlapping mix (classes fire)

	Workers    int
	NumBatches int
	Shards     int

	// Interrupt, when true, cancels the campaign after InterruptAfter
	// progress events and resumes it from the checkpoint: completed
	// batches come back, the interrupted ones re-run.
	Interrupt      bool
	InterruptAfter int
}

func (c Case) String() string {
	return fmt.Sprintf("ram%dx%d/seq2=%v/max=%d/mix=%d/w=%d/b=%d/s=%d/int=%v@%d",
		c.Rows, c.Cols, c.Seq2, c.MaxPatterns, c.FaultMix, c.Workers,
		c.NumBatches, c.Shards, c.Interrupt, c.InterruptAfter)
}

// genCase draws one configuration. Geometry and depth come from the
// scale knobs (scale_default_test.go / scale_slow_test.go) so the
// bounded run stays fast while -tags slow widens the lattice.
func genCase(rng *rand.Rand) Case {
	geom := geometries[rng.Intn(len(geometries))]
	c := Case{
		Rows:       geom[0],
		Cols:       geom[1],
		Seq2:       rng.Intn(2) == 1,
		FaultMix:   rng.Intn(2),
		Workers:    1 + rng.Intn(4),
		NumBatches: 1 + rng.Intn(6),
		Shards:     1 + rng.Intn(3),
	}
	if rng.Intn(3) > 0 {
		c.MaxPatterns = 4 + rng.Intn(12)
	}
	if rng.Intn(3) == 0 {
		c.Interrupt = true
		c.InterruptAfter = 1 + rng.Intn(40)
	}
	return c
}

// workload materializes the circuit, sequence and fault universe of a
// case. The fault list is a deterministic function of the geometry and
// mix, including deliberate duplicates in the overlapping mix so
// equivalence classes have members to collapse.
func workload(c Case) (*ram.RAM, *switchsim.Sequence, []fault.Fault) {
	m := ram.New(ram.Config{Rows: c.Rows, Cols: c.Cols})
	var seq *switchsim.Sequence
	if c.Seq2 {
		seq = march.Sequence2(m)
	} else {
		seq = march.Sequence1(m)
	}
	if c.MaxPatterns > 0 && c.MaxPatterns < len(seq.Patterns) {
		seq.Patterns = seq.Patterns[:c.MaxPatterns]
	}
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	if c.FaultMix == 1 {
		faults = append(faults, fault.BridgeFaults(m.BitlineShorts)...)
		for _, tid := range m.BitlineShorts {
			faults = append(faults, fault.Fault{Kind: fault.TransStuckClosed, Trans: tid})
		}
		n := len(faults) / 4
		faults = append(faults, faults[:n]...) // duplicates: guaranteed class members
	}
	return m, seq, faults
}

// canonical renders what a campaign merged — its Result without the
// recording and the resume accounting: the byte string two equivalent
// executions must agree on.
func canonical(t *testing.T, res *campaign.Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Run      core.Result
		PerFault []campaign.FaultOutcome
	}{res.Run, res.PerFault})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// refKey identifies the workload a reference covers.
func refKey(c Case) string {
	return fmt.Sprintf("%dx%d/%v/%d/%d", c.Rows, c.Cols, c.Seq2, c.MaxPatterns, c.FaultMix)
}

// reference runs the baseline — every fault in a one-fault batch, so
// nothing collapses, on one worker — and caches its canonical bytes per
// workload.
func reference(t *testing.T, cache map[string]string, c Case) string {
	t.Helper()
	key := refKey(c)
	if ref, ok := cache[key]; ok {
		return ref
	}
	m, seq, faults := workload(c)
	res, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
		Sim:       core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1},
		BatchSize: 1,
		Shards:    1,
	})
	if err != nil {
		t.Fatalf("%s: reference: %v", key, err)
	}
	ref := canonical(t, res)
	cache[key] = ref
	return ref
}

// runCase executes one configuration (with interrupt/resume when the
// case asks for it) and returns its canonical bytes.
func runCase(t *testing.T, c Case) string {
	t.Helper()
	m, seq, faults := workload(c)
	opts := campaign.Options{
		Sim: core.Options{
			Observe: []netlist.NodeID{m.DataOut},
			Workers: c.Workers,
		},
		BatchSize: (len(faults) + c.NumBatches - 1) / c.NumBatches,
		Shards:    c.Shards,
	}
	if !c.Interrupt {
		res, err := campaign.Run(context.Background(), m.Net, faults, seq, opts)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		return canonical(t, res)
	}

	// Interrupted run: cancel after the case's progress-event budget,
	// then resume from the checkpoint. The budget lands anywhere from
	// mid-first-batch to campaign-complete — all must converge.
	opts.CheckpointPath = filepath.Join(t.TempDir(), "difftest.ck")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	opts.Progress = func(campaign.ProgressEvent) {
		if events++; events >= c.InterruptAfter {
			cancel()
		}
	}
	res, err := campaign.Run(ctx, m.Net, faults, seq, opts)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted run: %v", c, err)
		}
		opts.Progress = nil
		res, err = campaign.Run(context.Background(), m.Net, faults, seq, opts)
		if err != nil {
			t.Fatalf("%s: resume: %v", c, err)
		}
	}
	return canonical(t, res)
}

// TestDifferentialEquivalence draws nCases seeded configurations and
// cross-checks each against the cached one-fault-batch reference for its
// workload. Failures print the full case so it can be replayed by
// constructing the same Case by hand.
func TestDifferentialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(difftestSeed))
	refs := map[string]string{}
	for i := 0; i < nCases; i++ {
		c := genCase(rng)
		want := reference(t, refs, c)
		got := runCase(t, c)
		if got != want {
			t.Fatalf("case %d diverged from the one-fault-batch reference:\n%s", i, c)
		}
	}
}

// TestDifferentialPinnedCases locks in the corners the random draw might
// miss at the bounded budget: classes spread over three batches, and
// campaigns with classes interrupted inside their only batch (the
// checkpoint holds nothing to resume) and inside the first of two.
func TestDifferentialPinnedCases(t *testing.T) {
	pinned := []Case{
		{Rows: 4, Cols: 4, FaultMix: 1, Workers: 2, NumBatches: 3, Shards: 2},
		{Rows: 4, Cols: 4, FaultMix: 1, Workers: 1, NumBatches: 1, Shards: 1,
			Interrupt: true, InterruptAfter: 25},
		{Rows: 2, Cols: 4, Seq2: true, FaultMix: 0, Workers: 3, NumBatches: 5, Shards: 3},
		{Rows: 4, Cols: 4, FaultMix: 1, MaxPatterns: 8, Workers: 2, NumBatches: 2,
			Shards: 2, Interrupt: true, InterruptAfter: 10},
	}
	refs := map[string]string{}
	for _, c := range pinned {
		if got, want := runCase(t, c), reference(t, refs, c); got != want {
			t.Fatalf("pinned case diverged from the one-fault-batch reference:\n%s", c)
		}
	}
}
