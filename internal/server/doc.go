// Package server implements fmossimd, the concurrent campaign job
// server: a long-running HTTP/JSON service that accepts fault-campaign
// submissions, schedules them over a bounded pool of runner goroutines,
// shares one warm engine — read-only switchsim.Tables and recorded
// good-circuit trajectories — across jobs over the same circuit, and
// streams per-setting progress (coverage, live-fault counts, detection
// events) as NDJSON.
//
// The throughput argument is the paper's, lifted one level: just as the
// concurrent simulator amortizes the good circuit across the fault
// universe, the server amortizes trajectory recording and table
// construction across campaigns, so a burst of jobs over the RAM
// benchmarks pays the good-circuit cost once. Load shedding is explicit:
// at most MaxJobs campaigns run at a time, at most QueueDepth wait, and
// submissions beyond that are rejected with 429 and a Retry-After hint
// so the daemon degrades predictably under burst traffic.
//
// Results are bit-identical to the one-shot CLI path (cmd/fmossim in
// campaign mode): both funnel into campaign.Run, whose determinism
// contract is independent of sharding, worker count, and — by
// construction — of which jobs share cached state.
//
// The server is also the worker half of distributed campaigns
// (internal/distrib): PUT /recordings/{fp} stores a coordinator's
// encoded good-circuit trajectory under its content fingerprint —
// decoded once, from the body bytes; a later PUT of a fingerprint the
// store holds answers 201 with the stored meta, refreshes its eviction
// age and decodes nothing — and a JobSpec with shard_lo/shard_hi runs
// exactly one batch of the fault universe against it (a one-batch
// campaign over the window, executed like a campaign job but left
// unmerged), returning the raw core.BatchResult for setting-granularity merging on
// the coordinator. On the result line Result.Batch is one base64 string:
// core.BatchResult's binary column form, its only serialised form, which
// a shard job encodes once, as it finishes. Each runner keeps its
// campaign slots between jobs, per built-in circuit.
// POST /jobs checks a job before it accepts it — every input failure is
// a 400, and a recording_fp the store does not hold is a 409 Conflict
// (ErrUnknownRecording) naming it — and an accepted shard job holds its
// recording, so a later eviction from the store cannot fail it.
// ResolveSpec exposes the spec-resolution path itself, so coordinator
// and workers provably enumerate the same fault universe from the same
// spec. The fingerprint contract and the merge-determinism guarantee are
// documented in ARCHITECTURE.md.
package server
