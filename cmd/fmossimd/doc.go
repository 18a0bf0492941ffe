// Command fmossimd is the concurrent campaign job server — and, with
// -coordinator, the distributed-campaign coordinator that drives a pool
// of such servers.
//
// # Server mode (default)
//
// A long-running HTTP daemon that accepts fault-campaign submissions,
// runs them over a bounded worker pool with shared tables and recorded
// good-circuit trajectories, and streams progress as NDJSON:
//
//	fmossimd -addr :8458 -max-jobs 4 -queue 32
//
// API (see internal/server for the full contract):
//
//	POST   /jobs             submit a campaign or shard job (JSON JobSpec)
//	GET    /jobs             list jobs
//	GET    /jobs/{id}        job status (+ result when done)
//	GET    /jobs/{id}/stream NDJSON progress stream
//	DELETE /jobs/{id}        cancel (live) / remove (terminal)
//	PUT    /recordings/{fp}  upload an encoded good-circuit recording
//	GET    /recordings       stored-recording metadata
//	GET    /healthz          liveness probe
//
// Example session:
//
//	fmossimd -addr :8458 &
//	curl -s :8458/jobs -d '{"workload":"ram64","sample_every":4}'
//	curl -sN :8458/jobs/job-1/stream
//
// A saturated server (max-jobs running, queue full) answers POST /jobs
// with 429 Too Many Requests and a Retry-After header. SIGINT/SIGTERM
// cancel every job cooperatively and drain the pool before exit.
//
// # Coordinator mode
//
// With -coordinator, fmossimd runs one distributed campaign across a
// comma-separated pool of workers and exits: the good trajectory is
// recorded once, uploaded to each worker by content fingerprint, and the
// fault universe fans out as shard jobs with retry/requeue on worker
// failure. The merged result is bit-identical to a single-process
// campaign with the same batch size (see internal/distrib and
// ARCHITECTURE.md):
//
//	fmossimd -coordinator -workers 127.0.0.1:8458,127.0.0.1:8459 \
//	    -workload ram256 -batch 64 -coverage-target 0.95
//
// Inline circuits work too: -net/-patterns/-observe mirror cmd/fmossim,
// and -trim enables redundancy trimming on every shard (results stay
// byte-identical). Shards are dispatched expensive-first:
// the coordinator estimates each shard's cost from the recording's head
// activity over its faults' sites and front-loads the heavy ones, so the
// tail of the campaign is never one large shard on an idle pool.
// -coverage-target and SIGINT follow internal/campaign's "Early stop and
// cancellation": at the target, shards already on a worker finish; a
// SIGINT before it DELETEs every outstanding worker job.
package main
