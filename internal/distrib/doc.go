// Package distrib is the distributed-campaign coordinator: it spreads
// one fault campaign across a pool of fmossimd workers, completing the
// amortization ladder the paper starts. FMOSSIM's concurrent algorithm
// amortizes one good-circuit simulation across the fault universe of one
// process; the campaign engine amortizes one recorded trajectory across
// batches; the job server amortizes it across jobs; distrib amortizes it
// across machines — the coordinator records (or is handed) the
// good-circuit trajectory exactly once, uploads its encoded bytes to each
// worker under their content fingerprint, and dispatches shard jobs that
// replay it, so a campaign of W workers × B shards pays for exactly one
// good-circuit simulation, cluster-wide. The coordinator never replays
// the trajectory, so it never holds it decoded: core.Capture runs the
// good circuit over the resolved workload's tables and a
// switchsim.StepWriter encodes each step as it is produced, into
// fixed-size chunks and a SHA-256. What it keeps is those bytes (2.0 MB
// for RAM256 sequence 1), their fingerprint, and one good-work value per
// setting, which is all the merge reads of a recording; a caller-supplied
// Options.Recording is validated and streamed through the same writer.
// The bytes are those Recording.Encode writes for the recording
// core.Record would capture, so the fingerprint is the same. The
// fingerprint is a function of the trajectory alone (the encoding
// carries no timing), so the upload happens once per workload, not once
// per campaign: a later Run over the same circuit and sequence finds the
// recording on the worker ("recording <fp> already on <worker>" through
// Logf) and uploads nothing.
//
// # Execution model
//
// Run resolves the workload spec locally with server.ResolveSpec — the
// byte-for-byte resolution path workers use — records (or takes) the
// recording into its wire form, and hands the campaign to
// campaign.Execute with a Remote hook, ending it with Ledger.Finish and
// the good-work column:
// campaign.Execute drives every shard — the ledger's batch windows of
// BatchSize faults (package campaign, "Batch composition"), early stop,
// the checkpoint log and the merge — exactly as it drives a local
// campaign's batches, and distrib supplies only where a shard runs and
// how a failed one is retried. Every shard job carries its window
// [lo, hi) of the universe in batch order as its inline fault list, with
// shard_lo 0 and shard_hi the window's width, so the worker runs exactly
// the faults the coordinator's window names, applies no ordering rule of
// its own, and parses only the faults it runs; each batch becomes one
// shard job (POST /jobs with the window, recording_fp, include_batch) on
// the existing fmossimd job API. Execute's pool runs len(Workers) × InFlight slots;
// slot w sends its shards to worker w mod len(Workers), and a per-worker
// bound keeps InFlight jobs on any one worker when shards are rerouted.
// The slot streams each job's NDJSON progress and returns the raw
// core.BatchResult from the terminal result line, where it travels in its
// binary column form as one base64 string (see core.BatchResult).
//
// Failures retry in rotation: a shard whose worker dies mid-stream
// (connection refused, broken stream, failed job), or whose result the
// ledger refuses (campaign.ErrBatchShape), runs again on the next worker
// that has not been abandoned. An execution failure or a refused result
// uses one of the shard's MaxAttempts, and a shard exhausting them fails
// the campaign; a failed upload or submission is charged to the worker
// alone. The worker checks a shard job when it accepts it, and an
// accepted job holds its recording, so the coordinator learns that a
// worker lost the recording (a restart, a store eviction) in one of two
// ways only: the presence check before the first upload, or a 409 from
// POST /jobs, after which the next shard sent to that worker uploads
// again. A broken stream is a failed shard, nothing more. A worker is abandoned after a run of consecutive failures, and
// when every worker is, the campaign fails as "all workers unavailable".
//
// Coverage, early stop and cancellation are not the coordinator's to
// define: it drives the same campaign.Ledger as campaign.Run (package
// campaign, "Early stop and cancellation"). Reaching CoverageTarget
// stops dispatch and lets the shards already on a worker finish; a
// cancel before that propagates DELETE to every outstanding job. With
// CheckpointPath, each completed shard is appended to the campaign's
// checkpoint log; a log written by a distributed or a local campaign
// with the same BatchSize resumes in either mode.
//
// # Determinism
//
// The merged result is bit-identical to a single-process campaign.Run
// over the same spec and batch size: shard jobs run core.RunBatch (whose
// results are deterministic for every worker count) against the same
// fingerprinted recording over the same windows, and the coordinator
// merges the per-batch results through the ledger — the same
// setting-granularity merge (campaign.Merge) the single-process engine
// uses, fed the same good work per setting.
// Scheduling, retries, worker count and
// shard arrival order leave no trace in the output. See ARCHITECTURE.md
// for the fingerprint contract and the merge-determinism guarantee.
package distrib
