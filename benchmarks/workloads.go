package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"

	"fmossim/internal/bench"
	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/distrib"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/serial"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// batchSize is the campaign, shard and lane-word width every batched
// workload uses: one full 64-bit lane word per batch.
const batchSize = 64

// quickPatterns is the length -quick truncates every sequence to.
const quickPatterns = 96

// holdOut is the number of seed-chosen faults additionally graded by the
// independent per-fault reference (internal/serial).
const holdOut = 24

// entryPar is the Workers / Shards / in-process worker / client count of
// every timed entry point: one. The gated numbers are single-thread
// numbers, measured with GOMAXPROCS 1 (see main): on a shared two-vCPU
// guest a second busy thread measures the host's scheduler, not the
// program.
const entryPar = 1

// probePar is the width of the traced pass's "all cores" probes (worker
// and shard speed-up, the contended burst): the machine's cores, at most
// four. Those probes raise GOMAXPROCS to it for their own duration.
func probePar() int { return min(runtime.NumCPU(), 4) }

// workload is one set of inputs plus the entry point a user would grade
// them through.
type workload struct {
	name, why string
	// sequence is "sequence1" (control + row/column march + array march)
	// or "sequence2" (marches omitted: slow detection, circuits stay live).
	sequence string
	// universe builds the seeded fault universe: the fault set is fixed,
	// rng orders it (and picks the overlap mix's duplicates).
	universe func(m *ram.RAM, every int, rng *rand.Rand) []fault.Fault
	// every thins the universe to each every-th fault of its canonical
	// order, so that one grading takes about half a second on one thread
	// and a run holds tens of them (see README.md, "Steadiness").
	every int
	trim  bool
	// mono marks the workload whose entry point is one whole-universe
	// batch (core.New().Run), not a batched campaign.
	mono bool
	// served marks an entry point that talks to an in-process fmossimd
	// (one server, one job at a time) instead of calling the library.
	served bool
	// grade runs one complete grading through the workload's entry point.
	// nil marks the burst workload, which has its own closed loop; its
	// sequence and universe feed only the hold-out check and the traced
	// pass's layer probes.
	grade func(ctx context.Context, in *inputs, client *http.Client) (*outcome, error)
}

var workloads = []*workload{
	{
		name:     "ram256-seq1-mono",
		why:      "the paper's own run: RAM256, sequence 1, node stuck-at faults through core.New().Run; head-dominated, core+switchsim only",
		sequence: "sequence1",
		universe: stuckUniverse, every: 3, mono: true,
		grade: gradeMono,
	},
	{
		name:     "ram256-seq2-campaign",
		why:      "slow-detection regime (Fig. 2): circuits stay live, so record stores, observe and per-batch index rebuilds dominate; campaign.Run batch 64",
		sequence: "sequence2",
		universe: paperUniverse, every: 7,
		grade: gradeCampaign,
	},
	{
		name:     "ram256-overlap-trim",
		why:      "overlapping fault mix with duplicates and Trim on: the only workload where class collapse and the vicinity memo fire",
		sequence: "sequence1",
		universe: overlapUniverse, every: 7, trim: true,
		grade: gradeCampaign,
	},
	{
		name:     "ram256-seq1-distrib",
		why:      "distrib.Run over loopback fmossimd workers: recording codec, shard JSON, NDJSON streams and coordinator scheduling do real work",
		sequence: "sequence1",
		universe: paperUniverse, every: 7, served: true,
		grade: gradeDistrib,
	},
	{
		name:     "ram64-jobs-burst",
		why:      "closed loop of many small RAM64 jobs on one fmossimd: per-job fixed costs dominate and the replay walk is minor",
		sequence: "sequence1",
		universe: paperUniverse, served: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func shuffled(fs []fault.Fault, rng *rand.Rand) []fault.Fault {
	rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	return fs
}

// thin keeps each every-th element of xs, in order. The strides in use
// are odd, so stuck-at-0 and stuck-at-1 (which alternate in the canonical
// order) are kept in equal numbers.
func thin[T any](xs []T, every int) []T {
	var out []T
	for i := 0; i < len(xs); i += every {
		out = append(out, xs[i])
	}
	return out
}

func stuckUniverse(m *ram.RAM, every int, rng *rand.Rand) []fault.Fault {
	return shuffled(thin(fault.NodeStuckFaults(m.Net, fault.Options{}), every), rng)
}

func paperUniverse(m *ram.RAM, every int, rng *rand.Rand) []fault.Fault {
	return shuffled(thin(bench.PaperFaults(m), every), rng)
}

// overlapUniverse is the paper universe plus a stuck-closed fault on every
// bit-line bridge transistor (materialization-equivalent to the bridge)
// plus a quarter of the stuck-at faults duplicated. With Trim on, a
// grading's cost depends on which members of a class share a batch (±7 %
// in allocation from one membership to the next), so the duplicates and
// the batches' membership are drawn from a constant, and the seed only
// orders the faults within each batch: it changes lane packing like on
// the other workloads, but not what the A/A gate would read as noise.
func overlapUniverse(m *ram.RAM, every int, rng *rand.Rand) []fault.Fault {
	fixed := rand.New(rand.NewSource(1))
	stuck := thin(fault.NodeStuckFaults(m.Net, fault.Options{}), every)
	shorts := thin(m.BitlineShorts, every)
	fs := append(append([]fault.Fault{}, stuck...), fault.BridgeFaults(shorts)...)
	for _, t := range shorts {
		fs = append(fs, fault.Fault{Kind: fault.TransStuckClosed, Trans: t})
	}
	for _, i := range fixed.Perm(len(stuck))[:len(stuck)/4] {
		fs = append(fs, stuck[i])
	}
	shuffled(fs, fixed)
	for lo := 0; lo < len(fs); lo += batchSize {
		shuffled(fs[lo:min(lo+batchSize, len(fs))], rng)
	}
	return fs
}

// inputs is everything a workload's gradings read, built from the seed
// alone. The program under test sees only these.
type inputs struct {
	circuit string // "ram256", or "ram64" (burst, and every -quick stand-in)
	m       *ram.RAM
	seq     *switchsim.Sequence
	faults  []fault.Fault
	obs     []netlist.NodeID
	tab     *switchsim.Tables
	trim    bool
	// spec is the same grading as a job: built-in circuit and sequence,
	// the seeded universe as an inline fault list.
	spec server.JobSpec
	// mix is one round of the burst's job mix (burst only).
	mix []server.JobSpec
	// cluster is the in-process fmossimd cluster (nil for library calls).
	cluster *cluster
}

// close stops the in-process servers; further calls do nothing.
func (in *inputs) close() {
	if in.cluster != nil {
		in.cluster.close()
		in.cluster = nil
	}
}

// units is the grading's size in fault·patterns, throughput's numerator.
func (in *inputs) units() float64 { return float64(len(in.faults) * len(in.seq.Patterns)) }

// build is the workload's set-up, the part timed as setup_s: network,
// sequence, fault universe, Tables, and the in-process servers started.
func (w *workload) build(seed int64, quick bool) (*inputs, error) {
	in := &inputs{circuit: "ram256", trim: w.trim}
	if quick || w.grade == nil {
		in.circuit = "ram64"
	}
	in.m, in.seq = builtin(in.circuit, w.sequence)
	maxPatterns := 0
	if quick {
		maxPatterns = quickPatterns
		in.seq.Patterns = in.seq.Patterns[:quickPatterns]
	}
	rng := rand.New(rand.NewSource(seed))
	in.faults = w.universe(in.m, max(w.every, 1), rng)
	in.obs = []netlist.NodeID{in.m.DataOut}
	in.tab = switchsim.NewTables(in.m.Net)

	var list strings.Builder
	if err := fault.WriteList(&list, in.m.Net, in.faults); err != nil {
		return nil, err
	}
	in.spec = server.JobSpec{
		Workload: in.circuit, Sequence: w.sequence, Faults: list.String(),
		MaxPatterns: maxPatterns, BatchSize: batchSize, Trim: w.trim, IncludePerFault: true,
	}
	if w.grade == nil {
		in.mix = burstMix(maxPatterns)
	}
	if w.served {
		in.cluster = startCluster(entryPar, entryPar)
	}
	return in, nil
}

func builtin(circuit, sequence string) (*ram.RAM, *switchsim.Sequence) {
	m := ram.RAM256()
	if circuit == "ram64" {
		m = ram.RAM64()
	}
	if sequence == "sequence2" {
		return m, march.Sequence2(m)
	}
	return m, march.Sequence1(m)
}

// burstMix is one round of the burst: every combination of sequence,
// fault model and sampling stride, once. A round is the unit the burst
// repeats, so every run grades the same multiset of jobs whatever its
// length; the seed only orders each round.
func burstMix(maxPatterns int) []server.JobSpec {
	var mix []server.JobSpec
	for _, seq := range []string{"sequence1", "sequence2"} {
		for _, model := range []string{"paper", "stuck"} {
			for _, every := range []int{1, 2, 4} {
				mix = append(mix, server.JobSpec{
					Workload: "ram64", Sequence: seq, MaxPatterns: maxPatterns, FaultModel: model,
					SampleEvery: every, BatchSize: batchSize, IncludePerFault: true,
				})
			}
		}
	}
	return mix
}

// detection is one fault's verdict in the form every entry point's result
// reduces to.
type detection struct {
	Detected         bool
	Pattern, Setting int
	Hard             bool
}

// outcome is a grading's result reduced to what must match the
// reference: every fault's verdict (hence the detected set and the
// coverage) and the two simulated work totals.
type outcome struct {
	Det                 []detection
	GoodWork, FaultWork int64
}

// diff describes the first disagreement between a grading and its
// reference, or returns "" when they agree.
func (ref *outcome) diff(got *outcome) string {
	switch {
	case len(got.Det) != len(ref.Det):
		return fmt.Sprintf("%d faults, reference has %d", len(got.Det), len(ref.Det))
	case got.GoodWork != ref.GoodWork:
		return fmt.Sprintf("good work %d, reference %d", got.GoodWork, ref.GoodWork)
	case got.FaultWork != ref.FaultWork:
		return fmt.Sprintf("fault work %d, reference %d", got.FaultWork, ref.FaultWork)
	}
	for i := range ref.Det {
		if got.Det[i] != ref.Det[i] {
			return fmt.Sprintf("fault %d: %+v, reference %+v", i, got.Det[i], ref.Det[i])
		}
	}
	return ""
}

func fromDetection(d core.Detection, ok bool) detection {
	return detection{Detected: ok, Pattern: d.Pattern, Setting: d.Setting, Hard: ok && d.Hard}
}

func fromSimulator(s *core.Simulator, r *core.Result) *outcome {
	out := &outcome{Det: make([]detection, r.NumFaults), GoodWork: r.GoodWork, FaultWork: r.FaultWork}
	for fi := range out.Det {
		out.Det[fi] = fromDetection(s.Detected(fi))
	}
	return out
}

func fromCampaign(res *campaign.Result) (*outcome, error) {
	out := &outcome{Det: make([]detection, len(res.PerFault)), GoodWork: res.Run.GoodWork, FaultWork: res.Run.FaultWork}
	for fi, o := range res.PerFault {
		if o.Skipped {
			return nil, fmt.Errorf("fault %d was skipped", fi)
		}
		out.Det[fi] = fromDetection(o.Detection, o.Detected)
	}
	return out, nil
}

// fromBatch reduces a single whole-universe batch result by merging it
// the way a one-batch campaign would.
func fromBatch(rec *switchsim.Recording, seq *switchsim.Sequence, br *core.BatchResult) (*outcome, error) {
	return fromCampaign(campaign.Merge(rec, seq, br.NumFaults, max(br.NumFaults, 1), []*core.BatchResult{br}))
}

// jobOutcome reduces a job's result, passing a job error through.
func jobOutcome(res *server.Result, err error) (*outcome, error) {
	if err != nil {
		return nil, err
	}
	return fromJob(res)
}

func fromJob(res *server.Result) (*outcome, error) {
	if len(res.PerFault) != res.NumFaults {
		return nil, fmt.Errorf("job result carries %d per-fault rows for %d faults", len(res.PerFault), res.NumFaults)
	}
	out := &outcome{Det: make([]detection, len(res.PerFault)), GoodWork: res.GoodWork, FaultWork: res.FaultWork}
	for fi, pf := range res.PerFault {
		if pf.Skipped {
			return nil, fmt.Errorf("fault %d was skipped", fi)
		}
		out.Det[fi] = detection{Detected: pf.Detected, Pattern: pf.Pattern, Setting: pf.Setting, Hard: pf.Hard}
	}
	return out, nil
}

// reference grades the universe by the path no workload times: the
// monolithic simulator with one worker, untrimmed.
func reference(nw *netlist.Network, obs []netlist.NodeID, faults []fault.Fault, seq *switchsim.Sequence) (*outcome, error) {
	s, err := core.New(nw, faults, core.Options{Observe: obs, Workers: 1})
	if err != nil {
		return nil, err
	}
	return fromSimulator(s, s.Run(seq)), nil
}

// checkHoldOut grades a seed-chosen sample of the universe with the
// independent per-fault simulator and compares detection and detecting
// pattern with the reference.
func checkHoldOut(in *inputs, ref *outcome, rng *rand.Rand) error {
	idx := rng.Perm(len(in.faults))[:min(holdOut, len(in.faults))]
	sample := make([]fault.Fault, len(idx))
	for i, fi := range idx {
		sample[i] = in.faults[fi]
	}
	res, err := serial.Run(in.m.Net, sample, in.seq, serial.Options{Observe: in.obs, StopOnDetect: true})
	if err != nil {
		return err
	}
	for i, fr := range res.PerFault {
		want := ref.Det[idx[i]]
		if fr.Detected != want.Detected || (fr.Detected && fr.Pattern != want.Pattern) {
			return fmt.Errorf("hold-out fault %d (%s): serial says detected=%v at pattern %d, reference %+v",
				idx[i], sample[i].Describe(in.m.Net), fr.Detected, fr.Pattern, want)
		}
	}
	return nil
}

func gradeMono(_ context.Context, in *inputs, _ *http.Client) (*outcome, error) {
	s, err := core.New(in.m.Net, in.faults, core.Options{Observe: in.obs, Workers: entryPar})
	if err != nil {
		return nil, err
	}
	return fromSimulator(s, s.Run(in.seq)), nil
}

func gradeCampaign(ctx context.Context, in *inputs, _ *http.Client) (*outcome, error) {
	res, err := campaign.Run(ctx, in.m.Net, in.faults, in.seq, campaign.Options{
		Sim:       core.Options{Observe: in.obs, Trim: in.trim},
		BatchSize: batchSize,
		Shards:    entryPar,
	})
	if err != nil {
		return nil, err
	}
	return fromCampaign(res)
}

// distribOptions is the coordinator configuration of the distrib
// workload; the traced pass reuses it with its own client and recording.
func distribOptions(in *inputs, client *http.Client) distrib.Options {
	return distrib.Options{
		Workers:    in.cluster.urls,
		InFlight:   2,
		BatchSize:  batchSize,
		SimWorkers: 1,
		Client:     client,
	}
}

func gradeDistrib(ctx context.Context, in *inputs, client *http.Client) (*outcome, error) {
	res, err := distrib.Run(ctx, in.spec, distribOptions(in, client))
	if err != nil {
		return nil, err
	}
	return fromCampaign(res)
}
