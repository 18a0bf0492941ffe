// Command fmossim runs a concurrent switch-level fault simulation: it
// reads a netlist, a fault list, and a pattern script, simulates all
// faults concurrently against the good circuit, and reports coverage.
// The same command runs the simulation in one process, as a sharded
// campaign, or as a campaign distributed over fmossimd job servers.
//
// Usage:
//
//	fmossim -net circuit.sim -faults faults.txt -patterns test.pat -observe out
//	fmossim -workload ram64 -sequence sequence2 -fault-model stuck
//
// The pattern script is line-oriented: each non-empty, non-comment line is
// one input setting "name=value name=value ...", and a line "pattern
// [NAME]" starts a new pattern (clock cycle). Outputs are observed after
// every setting.
//
// Fault-list and netlist formats are documented in internal/fault and
// internal/netlist. With -faults omitted, all storage-node stuck-at
// faults are simulated.
//
// Instead of -net, -patterns and -observe, -workload names a built-in
// benchmark circuit (ram64 or ram256, the paper's dynamic RAMs) with
// -sequence selecting its marching test and -fault-model its fault
// universe (paper: stuck-at plus bit-line bridges, the default; stuck:
// stuck-at only). -max-patterns truncates the sequence and -sample-every
// keeps every k-th fault. -drop sets the fault-dropping policy (any,
// hard, or never); -sim-workers the simulator workers per batch.
//
// Large fault universes can run as a sharded campaign: -batch N splits
// the fault list into batches of N faults, cut in fault-site order
// (internal/campaign, "Batch composition"), -shards N replays that many
// batches concurrently against a once-recorded good-circuit trajectory,
// -coverage-target F stops early once the detected fraction reaches F
// and skips the batches not yet started — whole site-ordered windows,
// not the tail of the fault list (internal/campaign, "Early stop and
// cancellation", is the rule), and -checkpoint FILE makes the campaign
// resumable: FILE is a log to which each completed batch appends one
// line, and a later run with the same flags reloads those batches instead
// of re-simulating them. A batch that was in flight, or whose line a
// crash cut short, re-runs from its first setting; the summary line
// counts both ("N run, M resumed"). A file written by another campaign,
// or by a build with another checkpoint format, is refused by name. The
// log is the same with and without -workers: a campaign interrupted in
// one mode resumes in the other with the same -batch. Every mode names an
// inline sequence "patterns", as fmossimd does, and the log is keyed by
// that name. Campaign results are bit-identical to the monolithic run.
//
// # Distributed campaigns
//
// With -workers, the campaign runs on a pool of fmossimd servers
// (internal/distrib): the good trajectory is recorded once, uploaded to
// each worker by content fingerprint (a worker that already holds it
// uploads nothing), and each batch goes out as one shard job, retried on
// another worker when one fails. Shards are dispatched in window order:
// the site-ordered windows already put the costliest faults, those on
// the first-built nodes, first. The merged result is bit-identical to
// the local campaign with the same -batch (0 splits the universe across
// the worker slots):
//
//	fmossimd -addr 127.0.0.1:8458 & fmossimd -addr 127.0.0.1:8459 &
//	fmossim -workers 127.0.0.1:8458,127.0.0.1:8459 -workload ram256 -batch 64
//
// -in-flight sets the concurrent shards per worker and -attempts the
// dispatches per shard before the campaign fails; both need -workers,
// and -shards is refused with it. A failed shard is retried on the next
// worker in rotation. -coverage-target, -checkpoint and SIGINT follow the
// local rule — one loop drives the batches in both modes: at the target,
// shards already on a worker finish; each completed shard is appended to
// the checkpoint log; a SIGINT before the target DELETEs every
// outstanding worker job, and the next run resumes from the log. A
// coverage line and the coordinator's log go to standard error.
//
// The summary is the same in every mode. Its detected: and work: lines
// are the result, identical from run to run, across every batching and
// on any number of workers; a campaign adds a campaign: line of batch
// counts; the wall: line after them is this process's own clock around
// the run (the result carries none). -v then lists every fault's outcome.
//
// The flags bind to the same campaign spec fmossimd takes
// (server.JobSpec), so circuit, sequence, observed nodes and fault
// universe are resolved by the code that resolves a submitted job.
package main
