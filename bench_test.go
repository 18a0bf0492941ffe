// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark iteration performs the complete experiment, so ns/op is
// the experiment's wall-clock cost; the reported custom metrics carry the
// figures' headline numbers (ratios, slopes, scaling factors). Use
// cmd/benchtab for the full CSV series behind each figure.
package fmossim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"fmossim/internal/bench"
	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/serial"
	"fmossim/internal/switchsim"
)

// BenchmarkTable1_TransistorStateFunction covers Table 1: the transistor
// state function (gate state × type → conduction state) at the core of
// every vicinity exploration.
func BenchmarkTable1_TransistorStateFunction(b *testing.B) {
	types := []logic.TransistorType{logic.NType, logic.PType, logic.DType}
	vals := []logic.Value{logic.Lo, logic.Hi, logic.X}
	var sink logic.Value
	for i := 0; i < b.N; i++ {
		sink = logic.SwitchState(types[i%3], vals[(i/3)%3])
	}
	_ = sink
}

// BenchmarkFig1_RAM64_Seq1 reproduces Figure 1: RAM64 under test sequence
// 1 (407 patterns) with the full storage-node stuck-at universe,
// concurrent simulation with fault dropping.
func BenchmarkFig1_RAM64_Seq1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ConcVsGood, "conc/good")
		b.ReportMetric(r.SerialVsConc, "serial/conc")
		b.ReportMetric(r.HeadWorkFraction, "head-frac")
		b.ReportMetric(r.TailSlowdown, "tail-slowdown")
		b.ReportMetric(100*float64(r.Detected)/float64(r.Faults), "coverage-%")
	}
}

// BenchmarkFig2_RAM64_Seq2 reproduces Figure 2: the same fault set under
// test sequence 2 (row/column marches omitted), showing the
// detection-rate dependence of concurrent simulation time.
func BenchmarkFig2_RAM64_Seq2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ConcVsGood, "conc/good")
		b.ReportMetric(r.SerialVsConc, "serial/conc")
	}
}

// BenchmarkFig3_FaultSweep reproduces Figure 3's structure: average cost
// per pattern versus the number of randomly sampled faults, linear for
// both concurrent and serial simulation. The benchmark uses an 8×8 RAM
// sweep to stay fast; cmd/benchtab -fig 3 runs the full RAM256 sweep.
func BenchmarkFig3_FaultSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig3(bench.Fig3Config{Rows: 8, Cols: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ConcFit.R2, "conc-R2")
		b.ReportMetric(r.SerialFit.R2, "serial-R2")
		b.ReportMetric(r.SerialVsConcSlope, "serial/conc-slope")
	}
}

// BenchmarkScaling reproduces the paper's size-scaling comparison: good
// and concurrent times scale together, serial much faster, as circuit
// size grows with fault count proportional to it. Quick instances (4×4 vs
// 8×8) keep iterations fast; cmd/benchtab -fig scaling runs RAM64/RAM256.
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Scaling(true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GoodFactor, "good-factor")
		b.ReportMetric(r.ConcFactor, "conc-factor")
		b.ReportMetric(r.SerialFactor, "serial-factor")
	}
}

// BenchmarkParallelScaling pins the parallel fault-circuit engine's
// speedup and allocation profile: RAM64 and RAM256 under sequence 1 with
// the stuck-at universe, at worker counts 1, 2, 4, and NumCPU. Results
// are bit-identical across worker counts (asserted by reporting detected
// coverage); ns/op shows the scaling, allocs/op the steady-state
// allocation behavior of the per-worker scratch circuits, which
// materialize each lane by copying prev.
func BenchmarkParallelScaling(b *testing.B) {
	sizes := []struct {
		name       string
		rows, cols int
		patterns   int
	}{
		{"RAM64", 8, 8, 0},     // full sequence
		{"RAM256", 16, 16, 60}, // truncated: keeps the smoke run fast
	}
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	for _, sz := range sizes {
		m := ram.New(ram.Config{Rows: sz.rows, Cols: sz.cols})
		faults := bench.NodeStuckOnly(m)
		seq := march.Sequence1(m)
		if sz.patterns > 0 && len(seq.Patterns) > sz.patterns {
			seq.Patterns = seq.Patterns[:sz.patterns]
		}
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", sz.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sim, err := core.New(m.Net, faults, core.Options{
						Observe: []netlist.NodeID{m.DataOut},
						Workers: w,
					})
					if err != nil {
						b.Fatal(err)
					}
					res := sim.Run(seq)
					b.ReportMetric(100*float64(res.Detected)/float64(len(faults)), "coverage-%")
				}
			})
		}
	}
}

// BenchmarkCampaign_RAM256 pins the sharded campaign path: RAM256
// (sequence 1 truncated to keep smoke runs fast) with the stuck-at
// universe, replaying a trajectory recorded once outside the timed loop —
// so ns/op is pure fault-side replay, with zero good-circuit solver work.
// allocs/op and B/op are the acceptance metric for the batch memory
// model: per-fault bookkeeping is the sparse divergence store only, and
// the dense per-node scratch is pooled per batch worker, so bytes scale
// with batch width (batches × workers × nodes), not with the size of the
// fault universe. Compare the one-batch and 64-wide sub-benchmarks: the
// narrow batches run the same fault count through a fraction of the
// resident state.
func BenchmarkCampaign_RAM256(b *testing.B) {
	m, faults, seq, rec := campaignRAM256()
	for _, cfg := range []struct {
		name      string
		batchSize int
	}{
		{"one-batch", len(faults)},
		{"batch=64", 64},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
					Sim:       core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1},
					BatchSize: cfg.batchSize,
					Shards:    2,
					Recording: rec,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.Coverage(), "coverage-%")
				b.ReportMetric(float64(res.Batches), "batches")
			}
		})
	}
}

// campaignRAM256 is the campaign benchmarks' workload: RAM256, the first
// 60 patterns of sequence 1, the stuck-at universe, and the trajectory
// recorded once outside any timed loop.
func campaignRAM256() (*ram.RAM, []fault.Fault, *switchsim.Sequence, *switchsim.Recording) {
	m := ram.New(ram.Config{Rows: 16, Cols: 16})
	seq := march.Sequence1(m)
	if len(seq.Patterns) > 60 {
		seq.Patterns = seq.Patterns[:60]
	}
	return m, bench.NodeStuckOnly(m), seq, core.Record(m.Net, seq, core.Options{})
}

// BenchmarkCampaign_Checkpointed prices Options.CheckpointPath: the
// workload of BenchmarkCampaign_RAM256 at batch 64 on one shard, without a
// checkpoint and with one in a fresh temporary file per iteration. The
// gap between the two rows is the per-batch completion save, which
// rewrites (and fsyncs) every result completed so far; ckbytes is the
// size of the file the last save left.
func BenchmarkCampaign_Checkpointed(b *testing.B) {
	m, faults, seq, rec := campaignRAM256()
	for _, checkpointed := range []bool{false, true} {
		b.Run(fmt.Sprintf("checkpoint=%v", checkpointed), func(b *testing.B) {
			b.ReportAllocs()
			path := ""
			if checkpointed {
				path = filepath.Join(b.TempDir(), "campaign.ck")
			}
			for i := 0; i < b.N; i++ {
				res, err := campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
					Sim:            core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1},
					BatchSize:      64,
					Shards:         1,
					Recording:      rec,
					CheckpointPath: path,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Batches), "batches")
				if checkpointed {
					fi, err := os.Stat(path)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(fi.Size()), "ckbytes")
					os.Remove(path) // the next iteration must not resume
				}
			}
		})
	}
}

// BenchmarkCampaign_Composition prices which faults share a batch. The
// universe is the benchmark harness's ram256-overlap-trim mix at seed 1
// (overlapUniverse): RAM256 under sequence 1, batch 64, one worker. "windows=index" runs core.RunBatch over the universe's own
// 64-fault windows and merges them, as campaigns cut batches before they
// cut them in site order; "windows=site" is campaign.Run. Both rows report
// the same counts over the windows they run: builds/op is Σ
// ReplayStats.Builds (one per batch and setting with an active lane),
// lanes/op Σ ReplayStats.Lanes, freed/op Σ TrimStats.LanesFreed (class
// members collapsed onto a representative), and fault-work the merged
// result's FaultWork, which composition must not move.
func BenchmarkCampaign_Composition(b *testing.B) {
	m := ram.RAM256()
	seq := march.Sequence1(m)
	faults := overlapUniverse(m, 7, rand.New(rand.NewSource(1)))
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	rec := core.Record(m.Net, seq, opts)
	tab := switchsim.NewTables(m.Net)
	const batchSize = 64

	// counts runs the windows one batch at a time and sums their counters.
	counts := func(b *testing.B, windows [][]fault.Fault) (rs switchsim.ReplayStats, freed int) {
		for _, w := range windows {
			fb, err := core.NewFaultBatch(tab, w, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fb.RunRecording(context.Background(), rec, seq); err != nil {
				b.Fatal(err)
			}
			rs.Add(fb.ReplayStats())
			freed += fb.TrimStats().LanesFreed
		}
		return rs, freed
	}
	var index [][]fault.Fault
	for lo := 0; lo < len(faults); lo += batchSize {
		index = append(index, faults[lo:min(lo+batchSize, len(faults))])
	}
	l := campaign.NewLedger(context.Background(), m.Net, faults, seq, batchSize, 0, 0, nil)
	var site [][]fault.Fault
	for i := 0; i < l.Batches(); i++ {
		lo, hi := l.Window(i)
		site = append(site, l.Faults()[lo:hi])
	}
	l.Verdict()

	for _, row := range []struct {
		name    string
		windows [][]fault.Fault
		run     func() (*campaign.Result, error)
	}{
		{"windows=index", index, func() (*campaign.Result, error) {
			results := make([]*core.BatchResult, len(index))
			for i, w := range index {
				br, err := core.RunBatch(context.Background(), tab, w, rec, seq, opts)
				if err != nil {
					return nil, err
				}
				results[i] = br
			}
			return campaign.Merge(rec, seq, len(faults), batchSize, results), nil
		}},
		{"windows=site", site, func() (*campaign.Result, error) {
			return campaign.Run(context.Background(), m.Net, faults, seq, campaign.Options{
				Sim: opts, BatchSize: batchSize, Shards: 1, Recording: rec, Tables: tab,
			})
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			rs, freed := counts(b, row.windows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := row.run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Run.FaultWork), "fault-work")
			}
			b.ReportMetric(float64(rs.Builds), "builds/op")
			b.ReportMetric(float64(rs.Lanes), "lanes/op")
			b.ReportMetric(float64(freed), "freed/op")
		})
	}
}

// overlapUniverse is the benchmark harness's overlap mix: every every-th
// stuck-at fault, the bridges of every every-th bit-line short plus a
// stuck-closed fault on each of those transistors (materialization-
// equivalent to the bridge), and a quarter of the stuck-at faults
// duplicated, shuffled by a constant; rng then shuffles each 64-fault
// window, as the harness's seed does.
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
	shuffle := func(fs []fault.Fault, rng *rand.Rand) {
		rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	}
	shuffle(fs, fixed)
	for lo := 0; lo < len(fs); lo += 64 {
		shuffle(fs[lo:min(lo+64, len(fs))], rng)
	}
	return fs
}

// thin keeps each every-th element of xs, in order.
func thin[T any](xs []T, every int) []T {
	var out []T
	for i := 0; i < len(xs); i += every {
		out = append(out, xs[i])
	}
	return out
}

// BenchmarkBatchStep_Lanes pins the word-packed lane engine's stepping
// cost: RAM64 under sequence 1 with the stuck-at universe (seven lane
// words), replayed through core.RunBatch. allocs/op tracks the cost of the
// packed index; the replay counters say how much of the walk the compiled
// good wave took over.
func BenchmarkBatchStep_Lanes(b *testing.B) {
	m := ram.RAM64()
	faults := bench.NodeStuckOnly(m)
	seq := march.Sequence1(m)
	rec := core.Record(m.Net, seq, core.Options{})
	tab := switchsim.NewTables(m.Net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb, err := core.NewFaultBatch(tab, faults, core.Options{
			Observe: []netlist.NodeID{m.DataOut},
			Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		br, err := fb.RunRecording(context.Background(), rec, seq)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(br.DetectedCount())/float64(len(faults)), "coverage-%")
		reportReplayStats(b, fb.ReplayStats())
	}
}

// reportReplayStats reports how a batch's replays rode the good wave: the
// lanes one compile serves, the share of lanes that skipped rounds, and
// what each of those skipped.
func reportReplayStats(b *testing.B, rs switchsim.ReplayStats) {
	b.ReportMetric(float64(rs.Lanes)/float64(max(rs.Compiles, 1)), "lanes/compile")
	b.ReportMetric(100*float64(rs.FastForwarded)/float64(max(rs.Lanes, 1)), "ff-lanes-%")
	b.ReportMetric(float64(rs.RoundsSkipped)/float64(max(rs.FastForwarded, 1)), "rounds-skipped/ff-lane")
	b.ReportMetric(float64(rs.AdoptionsSkipped)/float64(max(rs.FastForwarded, 1)), "adoptions-skipped/ff-lane")
}

// BenchmarkRecordingCodec pins what the trajectory artifact costs to make
// and to move: RAM256 under sequence 1 (truncated as in
// BenchmarkCampaign_RAM256), captured (good-circuit settle plus the owned
// copy of every step), encoded and decoded. B/op and allocs/op are the
// point as much as ns/op: an owned step is three exact-size slabs, Encode
// allocates its one buffer, and decoding allocates per step, not per list.
func BenchmarkRecordingCodec(b *testing.B) {
	m := ram.New(ram.Config{Rows: 16, Cols: 16})
	seq := march.Sequence1(m)
	if len(seq.Patterns) > 60 {
		seq.Patterns = seq.Patterns[:60]
	}
	rec := core.Record(m.Net, seq, core.Options{})
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()

	b.Run("capture-clone", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if got := core.Record(m.Net, seq, core.Options{}); len(got.Steps) != len(rec.Steps) {
				b.Fatalf("captured %d steps, want %d", len(got.Steps), len(rec.Steps))
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if err := rec.Encode(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := switchsim.DecodeRecordingBytes(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardResultCodec pins the cost and size of a shard job's
// result line payload: one 64-fault RAM256 batch result through
// json.Marshal and json.Unmarshal, as server.Result.Batch and a campaign
// checkpoint carry it. wire-B is the size of the JSON value.
func BenchmarkShardResultCodec(b *testing.B) {
	m := ram.New(ram.Config{Rows: 16, Cols: 16})
	seq := march.Sequence1(m)
	if len(seq.Patterns) > 60 {
		seq.Patterns = seq.Patterns[:60]
	}
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	br, err := core.RunBatch(context.Background(), switchsim.NewTables(m.Net),
		bench.NodeStuckOnly(m)[:64], core.Record(m.Net, seq, opts), seq, opts)
	if err != nil {
		b.Fatal(err)
	}
	wire, err := json.Marshal(br)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(br); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(wire)), "wire-B")
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			var got core.BatchResult
			if err := json.Unmarshal(wire, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGoodCircuit_RAM64 measures the baseline every ratio is
// computed against: the good circuit alone over sequence 1.
func BenchmarkGoodCircuit_RAM64(b *testing.B) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := serial.Run(m.Net, nil, seq, serial.Options{Observe: []netlist.NodeID{m.DataOut}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.GoodWork), "work-units")
	}
}

// BenchmarkAblation_FaultDropping measures the paper's fault-dropping
// design choice: without dropping, detected circuits keep consuming time.
func BenchmarkAblation_FaultDropping(b *testing.B) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	faults := bench.NodeStuckOnly(m)
	seq := march.Sequence1(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := bench.AblationDropping(m, faults, seq)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PenaltyFactor, "no-drop-penalty")
	}
}

// BenchmarkSolver_SettleRAM64Pattern measures the raw kernel: one full
// clock cycle of the good RAM64 circuit.
func BenchmarkSolver_SettleRAM64Pattern(b *testing.B) {
	m := ram.RAM64()
	sim := switchsim.NewSimulator(m.Net)
	sim.Init()
	w := m.Write(0, logic.Hi)
	r := m.Read(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunPattern(&w)
		sim.RunPattern(&r)
	}
}

// BenchmarkVicinityKernel measures one explore-gather-relax of a single
// vicinity, by member count, on settled RAM256 states: a lone node (over
// half of all solves) and the two- and three-member vicinities that with
// it make up 98 % of a grading, from the good run; and a bit line joined to
// its sixteen cells, from the circuit whose phi2b clock is stuck at 0 — the
// kind of vicinity the head of a grading pays for. Each iteration
// re-settles the settled circuit from one seed, so the vicinity is solved
// once and nothing changes.
func BenchmarkVicinityKernel(b *testing.B) {
	m := ram.RAM256()
	tab := switchsim.NewTables(m.Net)
	var settings []switchsim.Setting
	for _, p := range march.Sequence1(m).Patterns[:4] {
		settings = append(settings, p.Settings...)
	}
	// build returns the circuit (with the named node stuck at 0, if any)
	// settled after the first steps settings.
	build := func(stuck string, steps int) (*switchsim.Circuit, *switchsim.Solver) {
		c, sv := switchsim.NewCircuit(tab), switchsim.NewSolver(tab)
		if stuck != "" {
			c.ForceNode(m.Net.MustLookup(stuck), logic.Lo)
		}
		sv.Init(c)
		for _, set := range settings[:steps] {
			sv.Step(c, set)
		}
		return c, sv
	}
	for _, tc := range []struct {
		members int
		stuck   string
	}{{1, ""}, {2, ""}, {3, ""}, {17, "phi2b"}} {
		// Find the first settled state, and in it the first seed, whose
		// vicinity has this many members.
		steps, seed := 0, netlist.NoNode
		c, sv := build(tc.stuck, 0)
		for seed == netlist.NoNode && steps < len(settings) {
			sv.Step(c, settings[steps])
			steps++
			for i := 0; i < m.Net.NumNodes() && seed == netlist.NoNode; i++ {
				if n := netlist.NodeID(i); !c.IsInputLike(n) && len(sv.Settle(c, []netlist.NodeID{n}).Explored) == tc.members {
					seed = n
				}
			}
		}
		if seed == netlist.NoNode {
			b.Fatalf("no settled %d-member vicinity (stuck %q)", tc.members, tc.stuck)
		}
		b.Run(fmt.Sprintf("members=%d", tc.members), func(b *testing.B) {
			c, sv := build(tc.stuck, steps)
			seeds := []netlist.NodeID{seed}
			if res := sv.Settle(c, seeds); len(res.Explored) != tc.members || len(res.Changed) != 0 {
				b.Fatalf("seed %s: %d members, %d changes", m.Net.Name(seed), len(res.Explored), len(res.Changed))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sv.Settle(c, seeds)
			}
		})
	}
}

// BenchmarkRecord_RAM256 measures capturing the RAM256 sequence-1
// recording: the good-circuit run plus what owning its trajectory costs.
// B/op is the recording's footprint (see TestRecordingFootprint).
func BenchmarkRecord_RAM256(b *testing.B) {
	m := ram.RAM256()
	seq := march.Sequence1(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := core.Record(m.Net, seq, core.Options{})
		b.ReportMetric(float64(rec.GoodWork()), "work-units")
	}
}

// BenchmarkReplayWalk times one lane's replay of one RAM256 setting by how
// many leading rounds it shares with the good circuit: none (it walks
// every round, as every lane did before the good wave was compiled), one,
// or two and more — and for the lanes that share some, riding the compiled
// wave against walking the same rounds on an index that was only Built.
// The lanes are stuck-at circuits over the first patterns of sequence 1,
// each sampled with its state before the setting; an iteration restores a
// sample (two array copies, the same for every class), seeds it and
// replays it. ns/replay is the figure; the rounds and
// adoptions still walked say what the difference bought.
func BenchmarkReplayWalk(b *testing.B) {
	m := ram.RAM256()
	nw := m.Net
	tab := switchsim.NewTables(nw)
	var settings []switchsim.Setting
	for _, p := range march.Sequence1(m).Patterns[:6] {
		settings = append(settings, p.Settings...)
	}

	type lane struct {
		node netlist.NodeID
		c    *switchsim.Circuit
		sv   *switchsim.Solver
	}
	var lanes []*lane
	for i := 0; i < nw.NumNodes() && len(lanes) < 48; i += 5 {
		if n := netlist.NodeID(i); nw.Node(n).Kind != netlist.Input {
			ln := &lane{node: n, c: switchsim.NewCircuit(tab), sv: switchsim.NewSolver(tab)}
			ln.c.ForceNode(n, logic.Value(len(lanes)%2))
			ln.sv.SettleAll(ln.c)
			lanes = append(lanes, ln)
		}
	}
	// sample is one (setting, lane) replay: the index Built and Compiled
	// for the setting, and the lane's circuit as it was before it.
	type sample struct {
		ix   [2]*switchsim.ReplayIndex // Built only; Built and Compiled
		set  switchsim.Setting
		ln   *lane
		bit  uint
		from *switchsim.Circuit
	}
	classes := make([][]sample, 3)

	good, pre := switchsim.NewCircuit(tab), switchsim.NewCircuit(tab)
	gsv := switchsim.NewSolver(tab)
	gsv.Record = true
	gsv.Init(good)
	div := make([]uint64, nw.NumNodes())
	for _, set := range settings {
		clear(div)
		for li, ln := range lanes {
			mark := func(n netlist.NodeID) {
				if nw.Node(n).Kind != netlist.Input {
					div[n] |= 1 << uint(li)
				}
			}
			// The batch engine's static set: the fault's site, every node
			// where the lane differs, and what those gate.
			for i := 0; i < nw.NumNodes(); i++ {
				if n := netlist.NodeID(i); n == ln.node || ln.c.Value(n) != good.Value(n) {
					mark(n)
					for _, tr := range nw.GatedBy(n) {
						mark(nw.Transistor(tr).Source)
						mark(nw.Transistor(tr).Drain)
					}
				}
			}
		}
		pre.CopyStateFrom(good)
		if gsv.Step(good, set).Oscillated {
			b.Fatal("RAM256 good circuit oscillated")
		}
		// The index keeps a pointer to the trajectory: give each setting
		// its own copy through a one-step recording.
		rec := switchsim.NewRecording(nw)
		rec.Append(&switchsim.StepTrace{Traj: &gsv.Traj})
		walk, ix := switchsim.NewReplayIndex(tab), switchsim.NewReplayIndex(tab)
		walk.Build(rec.Steps[0].Traj, 1, div, nil)
		ix.Build(rec.Steps[0].Traj, 1, div, nil)
		ix.Compile(pre, set, nil, []uint64{1<<uint(len(lanes)) - 1})
		for li, ln := range lanes {
			from := switchsim.NewCircuit(tab)
			from.CopyStateFrom(ln.c)
			r0 := ln.sv.ReplayStats().RoundsSkipped
			ln.sv.SettleReplayIndexed(ln.c, ln.sv.ApplySetting(ln.c, set), ix, 0, uint(li))
			k := min(int(ln.sv.ReplayStats().RoundsSkipped-r0), 2)
			classes[k] = append(classes[k], sample{[2]*switchsim.ReplayIndex{walk, ix}, set, ln, uint(li), from})
		}
	}

	for k, name := range []string{"prefix=0/walk", "prefix=1/walk", "prefix=1/ride", "prefix=2+/walk", "prefix=2+/ride"} {
		samples, ride := classes[(k+1)/2], (k+1)%2
		if len(samples) == 0 {
			b.Fatalf("no lane with %s", name)
		}
		b.Run(name, func(b *testing.B) {
			// walked totals the rounds and adoptions the lanes' replays
			// have walked so far: what they counted less what they skipped.
			walked := func() (rounds, adoptions int64) {
				for _, ln := range lanes {
					w, rs := ln.sv.Work(), ln.sv.ReplayStats()
					rounds += w.Rounds - rs.RoundsSkipped
					adoptions += w.AdoptedVics - rs.AdoptionsSkipped
				}
				return rounds, adoptions
			}
			r0, a0 := walked()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range samples {
					s := &samples[j]
					s.ln.c.CopyStateFrom(s.from)
					s.ln.sv.SettleReplayIndexed(s.ln.c, s.ln.sv.ApplySetting(s.ln.c, s.set), s.ix[ride], 0, s.bit)
				}
			}
			b.StopTimer()
			r1, a1 := walked()
			replays := float64(b.N * len(samples))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/replays, "ns/replay")
			b.ReportMetric(float64(r1-r0)/replays, "walked-rounds/replay")
			b.ReportMetric(float64(a1-a0)/replays, "walked-adoptions/replay")
			b.ReportMetric(float64(len(samples)), "samples")
		})
	}
}

// BenchmarkMaterialize times what a lane-step pays before its settle and
// after its diff: copy prev into the worker's scratch, write the lane's
// divergence records over it (values, then the transistors they gate), apply
// the fault, and drop it again — the steps of core's stepFaulty, through the
// same switchsim calls. The lanes are RAM256 stuck-at circuits still live at
// the end of a pattern of sequence 1 (prev is the good state there), bucketed
// by how many records they hold; the copy is the same two memmoves in every
// bucket, so the spread across buckets is the overlay.
func BenchmarkMaterialize(b *testing.B) {
	m := ram.RAM256()
	tab := switchsim.NewTables(m.Net)
	seq := march.Sequence1(m)
	opts := core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	rec := core.Record(m.Net, seq, opts)
	fb, err := core.NewFaultBatch(tab, bench.NodeStuckOnly(m), opts)
	if err != nil {
		b.Fatal(err)
	}

	type lane struct {
		prev  *switchsim.Circuit
		f     fault.Fault
		nodes []netlist.NodeID
		vals  []logic.Value
	}
	buckets := []struct {
		name  string
		most  int
		lanes []lane
	}{{"records=0", 0, nil}, {"records<=4", 4, nil}, {"records<=16", 16, nil}, {"records>16", 1 << 30, nil}}
	const perBucket = 64
	good := switchsim.NewCircuit(tab)
	sample := func() {
		prev := switchsim.NewCircuit(tab)
		prev.CopyStateFrom(good)
		for fi := 0; fi < fb.NumFaults(); fi++ {
			if _, dropped := fb.Detected(fi); dropped {
				continue
			}
			ln := lane{prev: prev, f: fb.Fault(fi)}
			recs := fb.Records(fi)
			for n := range recs {
				ln.nodes = append(ln.nodes, n)
			}
			slices.Sort(ln.nodes)
			for _, n := range ln.nodes {
				ln.vals = append(ln.vals, recs[n])
			}
			for k := range buckets {
				if bk := &buckets[k]; len(ln.nodes) <= bk.most {
					if len(bk.lanes) < perBucket {
						bk.lanes = append(bk.lanes, ln)
					}
					break
				}
			}
		}
	}
	step := func(t *switchsim.StepTrace) {
		fb.Step(t)
		for _, chs := range [][]switchsim.Change{t.InputChanges, t.Changed} {
			for _, ch := range chs {
				good.OverrideValue(ch.Node, ch.Value)
				good.RefreshGates(ch.Node)
			}
		}
	}
	full := func() bool {
		for _, bk := range buckets {
			if len(bk.lanes) < perBucket {
				return false
			}
		}
		return true
	}
	step(&rec.Steps[0])
	sample()
	si := 1
	for pi := 0; pi < len(seq.Patterns) && !full(); pi++ {
		p := &seq.Patterns[pi]
		fb.BeginPattern()
		for i := range p.Settings {
			step(&rec.Steps[si])
			si++
			if p.ObserveAt(i) {
				fb.Observe()
			}
		}
		fb.EndPattern()
		if pi&(pi+1) == 0 { // patterns 0, 1, 3, 7, …
			sample()
		}
	}

	scratch := switchsim.NewCircuit(tab)
	for _, bk := range buckets {
		if len(bk.lanes) == 0 {
			b.Fatalf("no live lane with %s", bk.name)
		}
		b.Run(bk.name, func(b *testing.B) {
			records := 0
			for i := 0; i < b.N; i++ {
				ln := &bk.lanes[i%len(bk.lanes)]
				scratch.CopyStateFrom(ln.prev)
				for j, n := range ln.nodes {
					scratch.OverrideValue(n, ln.vals[j])
				}
				for _, n := range ln.nodes {
					scratch.RefreshGates(n)
				}
				ln.f.Apply(scratch)
				if ln.f.Kind.IsNodeFault() {
					scratch.DropForce(ln.f.Node)
				} else {
					scratch.DropPin(ln.f.Trans)
				}
				records += len(ln.nodes)
			}
			b.ReportMetric(float64(records)/float64(b.N), "records/op")
			b.ReportMetric(float64(len(bk.lanes)), "samples")
		})
	}
}
