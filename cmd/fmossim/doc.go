// Command fmossim runs a concurrent switch-level fault simulation: it
// reads a netlist, a fault list, and a pattern script, simulates all
// faults concurrently against the good circuit, and reports coverage.
//
// Usage:
//
//	fmossim -net circuit.sim -faults faults.txt -patterns test.pat -observe out
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
// Large fault universes can run as a sharded campaign: -batch N splits
// the fault list into batches of N faults, cut in fault-site order
// (internal/campaign, "Batch composition"), -shards N replays that many
// batches concurrently against a once-recorded good-circuit trajectory,
// -coverage-target F stops early once the detected fraction reaches F
// and skips the batches not yet started — whole site-ordered windows,
// not the tail of the fault list (internal/campaign, "Early stop and
// cancellation", is the rule), and -checkpoint FILE makes the campaign
// resumable (completed batches
// are reloaded instead of re-simulated; a batch that was in flight
// re-runs from its first setting). Campaign results are bit-identical to
// the monolithic run.
//
// -trim enables redundancy trimming: materialization-equivalent fault
// classes collapse onto one representative lane when a batch is built,
// and a batch whose circuits have all been dropped skips the rest of the
// sequence. Results stay byte-identical; only executed work shrinks.
//
// The summary's detected: and work: lines are the result, identical from
// run to run and across every batching; the wall: line after them is this
// process's own clock around the run (the result carries none).
//
// The flags bind to the same campaign spec fmossimd takes
// (server.JobSpec), so circuit, sequence, observed nodes and fault
// universe are resolved by the code that resolves a submitted job.
package main
