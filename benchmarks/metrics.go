package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metricDecl declares one metric of BENCHMARK.json. Bound is set on
// end-to-end metrics only. Moves is documentation for README.md's
// prediction table: the end-to-end metric and workload the layer metric
// is expected to move, written down before measuring.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	// Exact marks a simulated statistic: the same seed gives the same
	// value on every run, so two commits compare exactly.
	Exact bool
}

// endToEnd are the metrics a user of the system sees; every one is
// reported by every workload on an untraced run.
var endToEnd = []metricDecl{
	{Name: "grade_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_fps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_grade", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, all measured around public
// calls in the traced pass. Counts are exact and compare exactly between
// commits; times are host time.
var perLayer = []metricDecl{
	{Name: "switchsim.tables_build_s", Unit: "s", Better: "lower", Moves: "setup_s, all workloads"},
	{Name: "switchsim.good_settle_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq1-mono (<=8% share)"},
	{Name: "switchsim.good_work_units", Unit: "count", Better: "lower", Moves: "switchsim.good_settle_s", Exact: true},
	{Name: "switchsim.ns_per_good_unit", Unit: "ns", Better: "lower", Moves: "switchsim.good_settle_s"},
	{Name: "switchsim.recording_encode_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq1-distrib only"},
	{Name: "switchsim.recording_decode_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq1-distrib only"},
	{Name: "switchsim.recording_fingerprint_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq1-distrib only"},
	{Name: "switchsim.recording_bytes", Unit: "B", Better: "lower", Moves: "distrib.bytes_up"},
	{Name: "switchsim.replayindex_build_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq2-campaign (rebuilt per batch)"},
	{Name: "switchsim.vicmemo_hit_ratio", Unit: "ratio", Better: "higher", Moves: "grade_wall_s on ram256-overlap-trim only"},
	{Name: "switchsim.vicmemo_saved_units", Unit: "count", Better: "higher", Moves: "grade_wall_s on ram256-overlap-trim only", Exact: true},

	{Name: "core.record_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on campaign and distrib workloads"},
	{Name: "core.record_overhead_s", Unit: "s", Better: "lower", Moves: "core.record_s"},
	{Name: "core.batch_new_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram64-jobs-burst"},
	{Name: "core.batch_new_batched_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq2-campaign"},
	{Name: "core.run_batch_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on every RAM256 workload"},
	{Name: "core.run_batch_par_s", Unit: "s", Better: "lower", Moves: "nothing gated (the timed entry points run one worker); what a multi-core user of core.New sees"},
	{Name: "core.worker_speedup", Unit: "ratio", Better: "higher", Moves: "nothing gated; core.run_batch_s / core.run_batch_par_s on all cores"},
	{Name: "core.step_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on every RAM256 workload"},
	{Name: "core.observe_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq2-campaign"},
	{Name: "core.head_step_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq1-mono"},
	{Name: "core.tail_step_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq2-campaign"},
	{Name: "core.head_fraction", Unit: "ratio", Better: "lower", Moves: "context for head_step_s / tail_step_s"},
	{Name: "core.fault_work_units", Unit: "count", Better: "lower", Moves: "core.run_batch_s", Exact: true},
	{Name: "core.ns_per_fault_unit", Unit: "ns", Better: "lower", Moves: "grade_wall_s on every RAM256 workload"},
	{Name: "core.active_circuit_settings", Unit: "count", Better: "lower", Moves: "core.step_s", Exact: true},
	{Name: "core.lanes_replayed", Unit: "count", Better: "higher", Moves: "core.step_s", Exact: true},
	{Name: "core.scalar_fallbacks", Unit: "count", Better: "lower", Moves: "core.step_s", Exact: true},
	{Name: "core.adopted_vics", Unit: "count", Better: "higher", Moves: "core.step_s", Exact: true},
	{Name: "core.solved_vics", Unit: "count", Better: "lower", Moves: "core.step_s", Exact: true},
	{Name: "core.adopt_ratio", Unit: "ratio", Better: "higher", Moves: "core.ns_per_fault_unit"},
	{Name: "core.live_vs_recorded_ratio", Unit: "ratio", Better: "lower", Moves: "decides ROADMAP item 4(a); should stay near 1"},
	{Name: "core.trim_wall_ratio", Unit: "ratio", Better: "lower", Moves: "grade_wall_s on ram256-overlap-trim"},
	{Name: "core.lanes_freed", Unit: "count", Better: "higher", Moves: "core.trim_wall_ratio", Exact: true},
	{Name: "core.class_candidates", Unit: "count", Better: "higher", Moves: "core.lanes_freed", Exact: true},

	{Name: "campaign.run_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq2-campaign and ram256-overlap-trim"},
	{Name: "campaign.merge_s", Unit: "s", Better: "lower", Moves: "campaign.run_s"},
	{Name: "campaign.batches", Unit: "count", Better: "lower", Moves: "campaign.batching_tax", Exact: true},
	{Name: "campaign.shard_speedup", Unit: "ratio", Better: "higher", Moves: "nothing gated; campaign.run_s / the same campaign with one shard per core"},
	{Name: "campaign.batching_tax", Unit: "ratio", Better: "lower", Moves: "grade_wall_s on campaign workloads"},
	{Name: "campaign.pool_overhead_s", Unit: "s", Better: "lower", Moves: "campaign.run_s"},

	{Name: "server.resolve_spec_cold_s", Unit: "s", Better: "lower", Moves: "setup_s on service workloads"},
	{Name: "server.resolve_spec_warm_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram64-jobs-burst"},
	{Name: "server.job_inproc_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram64-jobs-burst"},
	{Name: "server.job_http_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram64-jobs-burst"},
	{Name: "server.stream_overhead_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram64-jobs-burst"},
	{Name: "server.stream_bytes", Unit: "B", Better: "lower", Moves: "server.stream_overhead_s"},
	{Name: "server.stream_lines", Unit: "count", Better: "lower", Moves: "server.stream_overhead_s"},
	{Name: "server.queue_wait_s", Unit: "s", Better: "lower", Moves: "server.job_latency_p90_s"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower", Moves: "failed jobs on ram64-jobs-burst"},
	{Name: "server.recording_put_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq1-distrib"},
	{Name: "server.shard_job_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq1-distrib"},
	{Name: "server.shard_result_bytes", Unit: "B", Better: "lower", Moves: "distrib.bytes_down"},
	{Name: "server.job_latency_p50_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram64-jobs-burst"},
	{Name: "server.job_latency_p90_s", Unit: "s", Better: "lower", Moves: "tail latency on ram64-jobs-burst (see jobs_timed)"},
	{Name: "server.jobs_timed", Unit: "count", Better: "higher", Moves: "sample count behind the two latency percentiles"},

	{Name: "distrib.run_s", Unit: "s", Better: "lower", Moves: "grade_wall_s on ram256-seq1-distrib; nothing else"},
	{Name: "distrib.shards", Unit: "count", Better: "lower", Moves: "distrib.run_s", Exact: true},
	{Name: "distrib.retries", Unit: "count", Better: "lower", Moves: "distrib.run_s"},
	{Name: "distrib.upload_s", Unit: "s", Better: "lower", Moves: "distrib.run_s"},
	{Name: "distrib.shard_rtt_p50_s", Unit: "s", Better: "lower", Moves: "distrib.run_s"},
	{Name: "distrib.bytes_up", Unit: "B", Better: "lower", Moves: "distrib.upload_s"},
	{Name: "distrib.bytes_down", Unit: "B", Better: "lower", Moves: "distrib.shard_rtt_p50_s"},
	{Name: "distrib.coordinator_overhead_s", Unit: "s", Better: "lower", Moves: "distrib.run_s; grows with shard-cost skew"},
	{Name: "distrib.vs_campaign_ratio", Unit: "ratio", Better: "lower", Moves: "grade_wall_s on ram256-seq1-distrib"},

	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "context for alloc_mb_per_grade; too noisy to gate"},
	{Name: "process.gc_pause_total_s", Unit: "s", Better: "lower", Moves: "context for alloc_mb_per_grade"},
	{Name: "process.num_gc", Unit: "count", Better: "lower", Moves: "context for alloc_mb_per_grade"},

	{Name: "trace.grade_wall_s", Unit: "s", Better: "lower", Moves: "base of the two trace ratios below"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "traced / untraced grade wall; should stay <= 1.05"},
	{Name: "trace.unattributed_s", Unit: "s", Better: "lower", Moves: "grade wall minus the layer spans it is made of"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "size of the trace file"},
}

// manifest renders BENCHMARK.json from the declarations above, so the
// file and the harness cannot drift: bench_test.go compares the two.
func manifest(workloads []*workload, runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), which is what the acceptance check of this benchmark uses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quantile returns the p-quantile of xs, interpolating linearly between
// the two nearest order statistics; 0 for no xs.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// percentile returns the p-th percentile (nearest rank) of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
