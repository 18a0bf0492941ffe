// Command fmossimd is the concurrent campaign job server: a long-running
// HTTP daemon that accepts fault-campaign submissions, runs them over a
// bounded worker pool with shared tables and recorded good-circuit
// trajectories, and streams progress as NDJSON:
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
// A distributed campaign (fmossim -workers, internal/distrib) drives a
// pool of these servers through the same API: it uploads the recording
// with PUT /recordings/{fp} and runs one shard job per batch.
package main
