package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/distrib"
	"fmossim/internal/fault"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// tracedPass is the -trace run: the workload's inputs walked outside-in
// through every layer's public functions, each call under a span, each
// result that has one checked against the reference. The per-layer
// metrics are therefore properties of the layers on this workload's
// circuit, sequence and fault universe, whichever entry point the
// workload itself grades through.
func tracedPass(ctx context.Context, cfg config, in *inputs, ref *outcome, rep *report) error {
	t := newTracer(cfg.workload.name)
	p := &probe{ctx: ctx, cfg: cfg, in: in, ref: ref, rep: rep, t: t, span: map[string]float64{}}

	entry, composed := p.entryPoint()
	p.switchsim()
	p.core()
	p.campaign()
	if err := p.server(); err != nil {
		return err
	}
	if err := p.distrib(); err != nil {
		return err
	}

	// The entry point's wall against the calls one layer down that do the
	// same work, measured in the same rounds: what is left is time the
	// trace cannot attribute.
	rep.set(perLayer, "trace.grade_wall_s", entry)
	rep.set(perLayer, "trace.unattributed_s", entry-composed)
	rep.set(perLayer, "trace.spans", float64(len(t.spans)))
	processStats(rep)

	if cfg.outDir != "" {
		if err := t.writeChrome(filepath.Join(cfg.outDir, "trace-"+cfg.workload.name+".json")); err != nil {
			return err
		}
	}
	var table strings.Builder
	t.writeTable(&table)
	rep.traceTable = table.String()
	return nil
}

// probe carries the traced pass's state from layer to layer.
type probe struct {
	ctx context.Context
	cfg config
	in  *inputs
	ref *outcome
	rep *report
	t   *tracer

	rec     *switchsim.Recording
	encoded []byte
	// mixRefs caches the burst mix's references (burst workload only).
	mixRefs []*outcome
	// span holds the durations (seconds) later probes and the
	// composition refer back to, by span name.
	span map[string]float64
}

func (p *probe) set(name string, v float64) { p.rep.set(perLayer, name, v) }

// allCores runs f with GOMAXPROCS raised to probePar: the "all workers"
// twin of a single-thread probe. Everything else in the pass runs on one
// thread, like the gradings the gated metrics time.
func (p *probe) allCores(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(probePar()))
	f()
}

// time runs f under a top-level span, after a collection so that one
// probe's garbage is not charged to the next, and remembers its
// clock-corrected duration (the span itself keeps the wall as measured).
func (p *probe) time(name string, f func()) float64 {
	runtime.GC()
	d := clocked(func() {
		h := p.t.begin(nil, 0, name)
		f()
		h.end()
	}).S
	p.span[name] = d
	return d
}

// median3 is time three times over (once in a -quick run), remembering
// and returning the median: used for the spans other metrics are ratios
// of, where one slow sample would skew a whole column.
func (p *probe) median3(name string, f func()) float64 {
	var ds []float64
	for i := 0; i < p.reps(); i++ {
		ds = append(ds, p.time(name, f))
	}
	p.span[name] = median(ds)
	return p.span[name]
}

// check compares a probe's result with the workload's reference.
func (p *probe) check(what string, out *outcome, err error) {
	p.rep.check(what, p.ref, out, err)
}

// reps is how often a repeated probe runs: three times, once when quick.
func (p *probe) reps() int {
	if p.cfg.quick {
		return 1
	}
	return 3
}

func (p *probe) simOpts(workers int, trim bool) core.Options {
	return core.Options{Observe: p.in.obs, Workers: workers, Trim: trim}
}

// chunks calls f with every batchSize-wide window of the universe.
func (p *probe) chunks(f func(bi int, faults []fault.Fault)) int {
	n := 0
	for lo := 0; lo < len(p.in.faults); lo += batchSize {
		f(n, p.in.faults[lo:min(lo+batchSize, len(p.in.faults))])
		n++
	}
	return n
}

// compose does what one grading through the workload's entry point does,
// by calling the layer below it directly, each call under a span, and
// returns the calls' summed clock-corrected wall. It runs right after an
// entry grading,
// in the same round and (for distrib) on the same long-lived cluster, so
// that the two walls see the same machine and the same heap. The result
// is checked like any grading.
func (p *probe) compose() float64 {
	in := p.in
	root := p.t.begin(nil, 0, "compose")
	defer root.end()
	step := func(name string, f func()) float64 {
		return clocked(func() {
			h := p.t.begin(root, 0, name)
			f()
			h.end()
		}).S
	}
	var tab *switchsim.Tables
	var rec *switchsim.Recording
	var out *outcome
	var err error
	var sum float64
	if in.cluster == nil {
		sum += step("compose.tables_build", func() { tab = switchsim.NewTables(in.m.Net) })
	}
	sum += step("compose.record", func() { rec = core.Record(in.m.Net, in.seq, core.Options{}) })
	switch {
	case in.cluster != nil:
		sum += step("compose.distrib_run", func() {
			client, _ := in.cluster.traced(p.t, root)
			opts := distribOptions(in, client)
			opts.Recording = rec
			var res *campaign.Result
			if res, err = distrib.Run(p.ctx, in.spec, opts); err == nil {
				out, err = fromCampaign(res)
			}
		})
	case p.cfg.workload.mono:
		sum += step("compose.run_batch", func() {
			var br *core.BatchResult
			if br, err = core.RunBatch(p.ctx, tab, in.faults, rec, in.seq, p.simOpts(entryPar, false)); err == nil {
				out, err = fromBatch(rec, in.seq, br)
			}
		})
	default:
		sum += step("compose.campaign_run", func() {
			var res *campaign.Result
			res, err = campaign.Run(p.ctx, in.m.Net, in.faults, in.seq, campaign.Options{
				Sim: p.simOpts(0, in.trim), BatchSize: batchSize, Shards: entryPar,
				Recording: rec, Tables: tab,
			})
			if err == nil {
				out, err = fromCampaign(res)
			}
		})
	}
	p.check("composed grading", out, err)
	return sum
}

// entryPoint grades through the workload's own entry point in rounds:
// once plain, once with the tracer's spans around it, then the same work
// composed from the layer below (compose). It returns the plain median
// wall, the base of trace.overhead_ratio and trace.unattributed_s, and the
// composed median wall, both clock-corrected.
func (p *probe) entryPoint() (entry, composed float64) {
	if p.cfg.workload.grade == nil {
		return p.entryBurst()
	}
	var plain, traced, parts []float64
	var client *http.Client
	if p.in.cluster != nil {
		client = p.in.cluster.client
	}
	gradeChecked(p.ctx, p.cfg, p.in, client, p.ref, p.rep, false) // warm-up
	for i := 0; i < p.reps(); i++ {
		w, _ := gradeChecked(p.ctx, p.cfg, p.in, client, p.ref, p.rep, false)
		plain = append(plain, w.S)

		h := p.t.begin(nil, 0, "entry.grade")
		tc := client
		if p.in.cluster != nil {
			tc, _ = p.in.cluster.traced(p.t, h)
		}
		w, _ = gradeChecked(p.ctx, p.cfg, p.in, tc, p.ref, p.rep, false)
		h.end()
		traced = append(traced, w.S)

		runtime.GC()
		parts = append(parts, p.compose())
	}
	p.set("trace.overhead_ratio", median(traced)/median(plain))
	return median(plain), median(parts)
}

// entryBurst is entryPoint for the burst: one round untraced, one traced,
// repeated; the wall is the mix's job latency as the gated metric defines
// it (mixLatency), and the composed wall the same over the traced rounds'
// jobs (their POST and stream spans).
func (p *probe) entryBurst() (entry, composed float64) {
	refs, _, err := mixReferences(p.in.mix)
	if err != nil {
		p.rep.fail("burst references: %v", err)
		return 0, 0
	}
	p.mixRefs = refs
	b := &burst{
		base: p.in.cluster.urls[0], client: p.in.cluster.client, clients: entryPar,
		mix: p.in.mix, refs: refs, rng: rand.New(rand.NewSource(p.cfg.seed)), more: once,
	}
	b.run(p.ctx, p.rep) // warm-up
	var plain, traced []jobSample
	for i := 0; i < p.reps(); i++ {
		b.client, b.tracer, b.parent = p.in.cluster.client, nil, nil
		samples, _ := b.run(p.ctx, p.rep)
		plain = append(plain, samples...)

		h := p.t.begin(nil, 0, "entry.burst_round")
		b.client, _ = p.in.cluster.traced(p.t, h)
		b.tracer, b.parent = p.t, h
		samples, _ = b.run(p.ctx, p.rep)
		h.end()
		traced = append(traced, samples...)
	}
	entry, composed = mixLatency(plain, len(p.in.mix)), mixLatency(traced, len(p.in.mix))
	p.set("trace.overhead_ratio", composed/entry)
	return entry, composed
}

func latencies(samples []jobSample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s.latency.Seconds())
		}
	}
	return out
}

// switchsim times the kernel layer: table build, the good circuit alone,
// the recording codec, and the per-setting replay index.
func (p *probe) switchsim() {
	in := p.in
	p.set("switchsim.tables_build_s", p.median3("switchsim.tables_build", func() { switchsim.NewTables(in.m.Net) }))

	var sim *switchsim.Simulator
	settle := p.median3("switchsim.good_settle", func() {
		sim = switchsim.NewSimulator(in.m.Net)
		sim.RunSequence(in.seq)
	})
	units := float64(sim.Solver.Work().Units())
	p.set("switchsim.good_settle_s", settle)
	p.set("switchsim.good_work_units", units)
	p.set("switchsim.ns_per_good_unit", settle*1e9/units)

	record := p.median3("core.record", func() { p.rec = core.Record(in.m.Net, in.seq, core.Options{}) })
	p.set("core.record_s", record)
	p.set("core.record_overhead_s", record-settle)

	var buf bytes.Buffer
	var encErr error
	p.set("switchsim.recording_encode_s", p.time("switchsim.recording_encode", func() { encErr = p.rec.Encode(&buf) }))
	p.encoded = buf.Bytes()
	p.set("switchsim.recording_bytes", float64(len(p.encoded)))
	p.set("switchsim.recording_fingerprint_s", p.time("switchsim.recording_fingerprint", func() { switchsim.FingerprintBytes(p.encoded) }))
	var decoded *switchsim.Recording
	var decErr error
	p.set("switchsim.recording_decode_s", p.time("switchsim.recording_decode", func() {
		decoded, decErr = switchsim.DecodeRecording(bytes.NewReader(p.encoded))
	}))
	p.rep.Attempted++
	if encErr != nil || decErr != nil || len(decoded.Steps) != len(p.rec.Steps) {
		p.rep.fail("recording round trip: encode %v, decode %v", encErr, decErr)
	}

	// One lane word, no divergence: the index build's floor, paid once
	// per setting by every batch.
	p.set("switchsim.replayindex_build_s", p.time("switchsim.replayindex_build", func() {
		n := in.m.Net.NumNodes()
		ix := switchsim.NewReplayIndex(in.tab)
		div, nz := make([]uint64, n), make([]int32, n)
		for i := range p.rec.Steps {
			if traj := p.rec.Steps[i].Traj; traj != nil {
				ix.Build(traj, 1, div, nz)
			}
		}
	}))
}

// core times the batch layer on the whole universe as one batch: batch
// construction, the replay with one worker and with all, the same replay
// driven setting by setting, the live-good-circuit path, and the trimmed
// twin.
func (p *probe) core() {
	in := p.in
	p.set("core.batch_new_s", p.time("core.batch_new", func() {
		core.NewFaultBatch(in.tab, in.faults, p.simOpts(1, false))
	}))
	p.set("core.batch_new_batched_s", p.time("core.batch_new_batched", func() {
		p.chunks(func(_ int, fs []fault.Fault) { core.NewFaultBatch(in.tab, fs, p.simOpts(1, false)) })
	}))

	var br *core.BatchResult
	var err error
	serial := p.median3("core.run_batch", func() {
		br, err = core.RunBatch(p.ctx, in.tab, in.faults, p.rec, in.seq, p.simOpts(1, false))
	})
	p.checkBatch("core.RunBatch (1 worker)", br, err)
	var parallel float64
	p.allCores(func() {
		parallel = p.median3("core.run_batch_par", func() {
			br, err = core.RunBatch(p.ctx, in.tab, in.faults, p.rec, in.seq, p.simOpts(probePar(), false))
		})
	})
	p.checkBatch("core.RunBatch (all workers)", br, err)
	p.set("core.run_batch_s", serial)
	p.set("core.run_batch_par_s", parallel)
	p.set("core.worker_speedup", serial/parallel)

	if err == nil {
		var work, active, replayed, fallbacks, adopted, solved float64
		for _, st := range br.PerSetting {
			work += float64(st.FaultWork)
			active += float64(st.ActiveCircuits)
			replayed += float64(st.LanesReplayed)
			fallbacks += float64(st.ScalarFallbacks)
			adopted += float64(st.AdoptedVics)
			solved += float64(st.SolvedVics)
		}
		p.set("core.fault_work_units", work)
		p.set("core.ns_per_fault_unit", serial*1e9/work)
		p.set("core.active_circuit_settings", active)
		p.set("core.lanes_replayed", replayed)
		p.set("core.scalar_fallbacks", fallbacks)
		p.set("core.adopted_vics", adopted)
		p.set("core.solved_vics", solved)
		p.set("core.adopt_ratio", adopted/(adopted+solved))
	}

	p.manualLoop()

	live := p.time("core.live_run", func() {
		out, err := gradeMono(p.ctx, in, nil)
		p.check("core.New().Run", out, err)
	})
	p.set("core.live_vs_recorded_ratio", live/(p.span["core.record"]+serial))

	// The trimmed twin of core.run_batch: same universe, one worker.
	var ts core.TrimStats
	trimmed := p.time("core.run_batch_trim", func() {
		var b *core.FaultBatch
		if b, err = core.NewFaultBatch(in.tab, in.faults, p.simOpts(1, true)); err == nil {
			br, err = b.RunRecording(p.ctx, p.rec, in.seq)
			ts = b.TrimStats()
		}
	})
	p.checkBatch("core.RunBatch (trimmed)", br, err)
	p.set("core.trim_wall_ratio", trimmed/serial)
	p.set("core.lanes_freed", float64(ts.LanesFreed))
	p.set("core.class_candidates", float64(ts.ClassCandidates))
	p.set("switchsim.vicmemo_hit_ratio", float64(ts.Memo.Hits)/float64(max(ts.Memo.Hits+ts.Memo.Misses, 1)))
	p.set("switchsim.vicmemo_saved_units", float64(ts.Memo.SavedUnits))
}

func (p *probe) checkBatch(what string, br *core.BatchResult, err error) {
	var out *outcome
	if err == nil {
		out, err = fromBatch(p.rec, p.in.seq, br)
	}
	p.check(what, out, err)
}

// manualLoop replays the recording through one whole-universe batch by
// hand, a span around every Step and every Observe. The head is the first
// tenth of the patterns, where most faults are still live.
func (p *probe) manualLoop() {
	in := p.in
	b, err := core.NewFaultBatch(in.tab, in.faults, p.simOpts(1, false))
	if err != nil {
		p.check("manual step loop", nil, err)
		return
	}
	// One clock correction for the whole loop: its thousands of spans are
	// too short to calibrate one by one.
	c0 := calibrate()
	root := p.t.begin(nil, 0, "core.manual_loop")
	var step, observe, head time.Duration
	headPatterns := (len(in.seq.Patterns) + 9) / 10
	b.Step(&p.rec.Steps[0])
	si := 1
	for pi := range in.seq.Patterns {
		pat := &in.seq.Patterns[pi]
		b.BeginPattern()
		for i := range pat.Settings {
			h := p.t.begin(root, 0, "core.step")
			b.Step(&p.rec.Steps[si])
			d := h.end()
			si++
			step += d
			if pi < headPatterns {
				head += d
			}
			if pat.ObserveAt(i) {
				h := p.t.begin(root, 0, "core.observe")
				b.Observe()
				observe += h.end()
			}
		}
		b.EndPattern()
	}
	root.end()
	clock := refCal * 2 / (c0 + calibrate())
	p.set("core.step_s", step.Seconds()*clock)
	p.set("core.observe_s", observe.Seconds()*clock)
	p.set("core.head_step_s", head.Seconds()*clock)
	p.set("core.tail_step_s", (step-head).Seconds()*clock)
	p.set("core.head_fraction", head.Seconds()/step.Seconds())

	p.rep.Attempted++
	for fi, want := range p.ref.Det {
		if got := fromDetection(b.Detected(fi)); got != want {
			p.rep.fail("manual step loop: fault %d: %+v, reference %+v", fi, got, want)
			break
		}
	}
}

// campaign times the sharded layer with tables and recording supplied:
// one shard and all, the same batches run back to back without the pool,
// and the merge on its own.
func (p *probe) campaign() {
	in := p.in
	run := func(name string, shards int, time func(string, func()) float64) float64 {
		return time(name, func() {
			res, err := campaign.Run(p.ctx, in.m.Net, in.faults, in.seq, campaign.Options{
				Sim: p.simOpts(0, in.trim), BatchSize: batchSize, Shards: shards,
				Recording: p.rec, Tables: in.tab,
			})
			var out *outcome
			if err == nil {
				out, err = fromCampaign(res)
			}
			p.check(name, out, err)
		})
	}
	oneShard := run("campaign.run", entryPar, p.median3)
	var allShards float64
	p.allCores(func() { allShards = run("campaign.run_all_shards", probePar(), p.time) })

	results := make([]*core.BatchResult, (len(in.faults)+batchSize-1)/batchSize)
	var batchErr error
	var nBatches int
	batched := p.time("campaign.batches_serial", func() {
		nBatches = p.chunks(func(bi int, fs []fault.Fault) {
			br, err := core.RunBatch(p.ctx, in.tab, fs, p.rec, in.seq, p.simOpts(1, in.trim))
			results[bi] = br
			if err != nil {
				batchErr = err
			}
		})
	})

	var merged *campaign.Result
	merge := p.time("campaign.merge", func() {
		if batchErr == nil {
			merged = campaign.Merge(p.rec, in.seq, len(in.faults), batchSize, results)
		}
	})
	var out *outcome
	if batchErr == nil {
		out, batchErr = fromCampaign(merged)
	}
	p.check("per-batch RunBatch + Merge", out, batchErr)

	oneBatch := p.span["core.run_batch"]
	if in.trim {
		oneBatch = p.span["core.run_batch_trim"]
	}
	p.set("campaign.run_s", oneShard)
	p.set("campaign.merge_s", merge)
	p.set("campaign.batches", float64(nBatches))
	p.set("campaign.shard_speedup", oneShard/allShards)
	p.set("campaign.batching_tax", batched/oneBatch)
	p.set("campaign.pool_overhead_s", oneShard-batched)
}

// server times one fmossimd: spec resolution, the same job in process
// and over HTTP, a closed-loop burst for latency under contention, and
// the two halves of a shard job (recording upload, batch job).
func (p *probe) server() error {
	in := p.in
	spec := in.spec
	mix, refs := []server.JobSpec{spec}, []*outcome{p.ref}
	par := probePar()
	rounds := 2 * par
	if p.cfg.workload.grade == nil {
		// The burst workload's server probe is the burst itself.
		mix, refs, rounds = in.mix, p.mixRefs, 10
		if refs == nil {
			return fmt.Errorf("burst references unavailable")
		}
		spec = mix[0]
	}
	if p.cfg.quick {
		rounds = 1
	}

	p.set("server.resolve_spec_cold_s", p.time("server.resolve_spec_cold", func() { server.ResolveSpec(&spec) }))
	var warm []float64
	for i := 0; i < 3; i++ {
		warm = append(warm, p.time("server.resolve_spec_warm", func() { server.ResolveSpec(&spec) }))
	}
	p.set("server.resolve_spec_warm_s", median(warm))

	cl := startCluster(1, par)
	defer cl.close()
	mgr, base := cl.mgrs[0], cl.urls[0]

	// The first job fills the manager's table and recording caches.
	if _, _, err := inprocJob(mgr, spec); err != nil {
		return fmt.Errorf("server warm-up job: %w", err)
	}
	var res *server.Result
	var err error
	inproc := p.time("server.job_inproc", func() {
		res, _, err = inprocJob(mgr, spec)
		out, err := jobOutcome(res, err)
		p.rep.check("in-process job", refs[0], out, err)
	})
	var s jobSample
	overHTTP := p.time("server.job_http", func() {
		s = httpJob(p.ctx, cl.client, base, &spec)
		out, err := jobOutcome(s.res, s.err)
		p.rep.check("HTTP job", refs[0], out, err)
	})
	p.set("server.job_inproc_s", inproc)
	p.set("server.job_http_s", overHTTP)
	p.set("server.stream_overhead_s", overHTTP-inproc)
	p.set("server.stream_bytes", float64(s.bytes))
	p.set("server.stream_lines", float64(s.lines))

	// Closed loop, one client per core, all cores: latency under contention.
	root := p.t.begin(nil, 0, "server.burst")
	client, _ := cl.traced(p.t, root)
	served := 0
	b := &burst{
		base: base, client: client, clients: par, mix: mix, refs: refs, rng: rand.New(rand.NewSource(p.cfg.seed)),
		more:   func() bool { served++; return served < rounds },
		tracer: p.t, parent: root,
	}
	var samples []jobSample
	p.allCores(func() { samples, _ = b.run(p.ctx, p.rep) })
	root.end()
	lat := latencies(samples)
	var refused float64
	for _, s := range samples {
		if s.refused {
			refused++
		}
	}
	var queued []float64
	for _, snap := range mgr.List() {
		if snap.StartedAt != nil {
			queued = append(queued, snap.StartedAt.Sub(snap.SubmittedAt).Seconds())
		}
	}
	p.set("server.job_latency_p50_s", median(lat))
	p.set("server.job_latency_p90_s", percentile(lat, 0.90))
	p.set("server.jobs_timed", float64(len(lat)))
	p.set("server.queue_wait_s", median(queued))
	p.set("server.rejected_429", refused)

	// A shard job's two halves, as the coordinator pays them.
	fp := switchsim.FingerprintBytes(p.encoded)
	var putErr error
	p.set("server.recording_put_s", p.time("server.recording_put", func() {
		putErr = putRecording(p.ctx, cl.client, base, fp, p.encoded)
	}))
	shard := in.spec
	shard.BatchSize, shard.IncludePerFault = 0, false
	shard.ShardLo, shard.ShardHi = 0, min(batchSize, len(in.faults))
	shard.RecordingFP, shard.IncludeBatch, shard.Workers = fp, true, 1
	var sj jobSample
	p.set("server.shard_job_s", p.time("server.shard_job", func() { sj = httpJob(p.ctx, cl.client, base, &shard) }))
	p.set("server.shard_result_bytes", float64(sj.bytes))
	p.rep.Attempted++
	switch {
	case putErr != nil:
		p.rep.fail("PUT recording: %v", putErr)
	case sj.err != nil:
		p.rep.fail("shard job: %v", sj.err)
	case sj.res.Batch == nil:
		p.rep.fail("shard job: result line without batch payload")
	default:
		for fi := range sj.res.Batch.Detected {
			if got := fromDetection(sj.res.Batch.Detections[fi], sj.res.Batch.Detected[fi]); got != p.ref.Det[fi] {
				p.rep.fail("shard job: fault %d: %+v, reference %+v", fi, got, p.ref.Det[fi])
				break
			}
		}
	}
	return nil
}

func putRecording(ctx context.Context, client *http.Client, base, fp string, encoded []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, base+"/recordings/"+fp, bytes.NewReader(encoded))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("PUT /recordings: %s", resp.Status)
	}
	return nil
}

// distrib times a distributed campaign over a fresh cluster, its HTTP
// exchanges counted by the tracing transport, and splits the makespan
// into the busiest worker's shard time and the coordinator's remainder.
// Like the other ratio bases it runs three times; each figure is the
// median of its three values, the times clock-corrected by their run's
// factor.
func (p *probe) distrib() error {
	in := p.in
	cl := startCluster(entryPar, 1)
	defer cl.close()
	opts := distribOptions(&inputs{cluster: cl}, cl.client)
	opts.Recording = p.rec
	fp := switchsim.FingerprintBytes(p.encoded)
	// evict drops the campaign's recording from every worker, so that the
	// next run uploads it again as a fresh campaign would.
	evict := func() error {
		for _, u := range cl.urls {
			req, err := http.NewRequestWithContext(p.ctx, http.MethodDelete, u+"/recordings/"+fp, nil)
			if err != nil {
				return err
			}
			resp, err := cl.client.Do(req)
			if err != nil {
				return err
			}
			resp.Body.Close()
		}
		return nil
	}
	// One untimed campaign fills every worker's table cache, as on a
	// running cluster.
	if _, err := distrib.Run(p.ctx, in.spec, opts); err != nil {
		return fmt.Errorf("distrib warm-up: %w", err)
	}

	seen := map[string]bool{} // jobs of earlier runs, keyed by manager index and job id
	figures := map[string][]float64{}
	for rep := 0; rep < p.reps(); rep++ {
		if err := evict(); err != nil {
			return err
		}
		for i, m := range cl.mgrs {
			for _, snap := range m.List() {
				seen[fmt.Sprint(i, "/", snap.ID)] = true
			}
		}
		runtime.GC()

		var tt *tracingTransport
		var res *campaign.Result
		var err error
		w := clocked(func() {
			root := p.t.begin(nil, 0, "distrib.run")
			opts.Client, tt = cl.traced(p.t, root)
			res, err = distrib.Run(p.ctx, in.spec, opts)
			root.end()
		})
		makespan, clock := w.S, w.S/w.Raw
		var out *outcome
		if err == nil {
			out, err = fromCampaign(res)
		}
		p.check("distrib.Run", out, err)
		if err != nil {
			return nil
		}

		var upload, up, down float64
		var rtts []float64
		posts := 0
		tt.mu.Lock()
		for _, rt := range tt.trips {
			up += float64(rt.up)
			down += float64(rt.down)
			switch rt.route {
			case "PUT /recordings":
				upload += rt.dur.Seconds()
			case "POST /jobs":
				posts++
			case "GET /stream":
				rtts = append(rtts, rt.dur.Seconds())
			}
		}
		tt.mu.Unlock()

		// The busiest worker's summed job walls, from the managers' own
		// start/finish stamps.
		var busiest float64
		for i, m := range cl.mgrs {
			var sum float64
			for _, snap := range m.List() {
				if !seen[fmt.Sprint(i, "/", snap.ID)] && snap.StartedAt != nil && snap.FinishedAt != nil {
					sum += snap.FinishedAt.Sub(*snap.StartedAt).Seconds()
				}
			}
			busiest = max(busiest, sum)
		}
		for name, v := range map[string]float64{
			"distrib.run_s": makespan, "distrib.shards": float64(res.Batches),
			"distrib.retries": float64(posts - res.Batches), "distrib.upload_s": upload * clock,
			"distrib.shard_rtt_p50_s": median(rtts) * clock, "distrib.bytes_up": up, "distrib.bytes_down": down,
			"distrib.coordinator_overhead_s": makespan - busiest*clock,
		} {
			figures[name] = append(figures[name], v)
		}
	}
	for name, vs := range figures {
		p.set(name, median(vs))
	}
	p.span["distrib.run"] = median(figures["distrib.run_s"])
	p.set("distrib.vs_campaign_ratio", p.span["distrib.run"]/p.span["campaign.run"])
	return nil
}
