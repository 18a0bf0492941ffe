// Package core implements FMOSSIM's concurrent switch-level fault
// simulation algorithm: the paper's primary contribution.
//
// The good circuit (id 0) is simulated in its entirety. For each faulty
// circuit, the simulator keeps only divergence records ⟨circuit, state⟩ on
// the nodes whose state differs from the good circuit, plus the fault pin
// itself. Per input setting, the good circuit is simulated first; the
// activity it generates — together with the input changes — determines
// which faulty circuits must be re-simulated ("events are scheduled on a
// circuit-by-circuit basis"). Each activated faulty circuit is then
// simulated separately by materializing its view (a copy of the good
// pre-step state overlaid with its records and fault), settling only from
// its perturbed nodes, and diffing the touched region back into records. This exploits the
// data-dependent locality of each circuit individually, which is the
// paper's key adaptation of concurrent simulation to the switch level,
// where logic-element boundaries (transistor vicinities) differ between
// the good and faulty circuits.
//
// A faulty circuit is activated when the good circuit's activity touches
// its interest set: its divergence records, the channel terminals of
// transistors whose conduction in the faulty circuit differs from the good
// circuit (stuck transistors, transistors gated by divergent or faulted
// nodes), and the neighborhood of faulted nodes. The per-node interest
// rows play the role of the paper's per-node state lists sorted by circuit
// id with shadow pointers: a node's row answers "which circuits care about
// this node" a word of 64 circuits at a time, in ascending circuit order.
//
// Whenever a faulty circuit's observed output differs from the good
// circuit's, the fault is detected and the circuit is dropped: its records
// are purged and it is never simulated again.
//
// # Producer/consumer split and the determinism guarantee
//
// The package is split along the producer/consumer seam: a goodRunner
// simulates the fault-free circuit and emits one switchsim.StepTrace per
// step (good.go); a FaultBatch consumes step traces and executes an
// arbitrary slice of the fault universe against them (batch.go). The
// Simulator wires one producer to one batch covering the whole universe —
// the classic monolithic configuration. Capture hands the producer's
// traces to a sink as they are produced; Record is Capture into a
// switchsim.Recording, against which independent batches replay without
// a good-circuit solver (RunBatch; see internal/campaign for the sharded
// engine built on top, which re-arms one batch per shard slot with
// FaultBatch.Reset and hands it its last result's row tables to refill
// with FaultBatch.ReuseRows), and a distributed coordinator captures into a
// switchsim.StepWriter, holding only the encoded bytes. Either way a
// batch reads the good circuit only through the traces: it keeps its own
// good-state mirror, advanced from each trace's input changes and its
// trajectory's change list, and schedules from the trajectory's members.
// A live batch and a replayed one run the same code — one pattern loop
// (FaultBatch.runPattern) that polls cancellation, observes, reports
// progress and hands each setting's row on, fed a live trace or a
// recorded one per setting. One type assembles every Result: Fold. A
// monolithic Run is a fold of one batch, its rows folded as the patterns
// run; a campaign folds its batches' row tables (internal/campaign).
//
// Faults are inserted by the initialization step, the first trace every
// batch steps: each circuit is materialized from the reset state with its
// fault applied, settled, and diffed — the forced node included — so a
// defect is present from power-on, as in the serial reference.
//
// The replay path is deterministic by construction: a batch's results
// depend only on the recording and the batch's own fault slice. Within a
// batch, the activated circuits of a setting are fanned out over the
// batch's workers (internal/fanout — one body, inline on one worker when
// the pool or the setting is small), and their divergence-record
// write-back is merged in ascending circuit-id order afterwards, so
// results are bit-identical for every Options.Workers value; across
// batches, any partition of the fault universe replayed against the same
// recording merges (at setting granularity) to the monolithic result.
// Neither side reads a clock, and no field of a StepTrace, BatchResult or
// Result is a time: a result is a pure function of the network, the fault
// list, the sequence and the result-shaping options, with no exempt
// fields, and whoever wants a duration takes it around the call.
// Redundancy trimming (trim.go), which every batch runs, keeps that true
// by deciding fault equivalence once, from structure, when a batch is
// built; once every circuit of a batch is dropped, the rest of its
// settings skip the fault side. A batch of one fault has nothing to
// collapse, so one-fault batches are the untrimmed reference.
//
// # Word-packed lanes
//
// Inside a batch, faulty circuits are packed into 64-bit lane words:
// circuit ci occupies bit (ci-1)%64 of word (ci-1)/64. The packing drives
// two word-wide structures. Per-node interest masks answer "which circuits
// care about this node" a word at a time: the scheduler ORs the touched
// nodes' rows, and Observe walks an output's row to find the circuits
// holding a record there (a record at a node registers interest at the
// node itself), reading each value from the circuit's one record store. A
// per-setting switchsim.ReplayIndex, built from the masks once per word
// and shared by every circuit in it, carries the static-divergence flag
// closure; it is built on demand, by the Steps that activate a circuit,
// which also compile the good circuit's wave so that lanes still in step
// with it skip their shared leading rounds (FaultBatch.ReplayStats counts
// them, outside every result). The post-settle diff is per circuit, against
// the worker's pooled record bitmap. Retiring a detected circuit clears its
// lane bit from each interest row it occupies (O(records + sites)). The
// packing is a pure indexing layer: which lane a fault occupies never
// changes what its circuit computes, so BatchResult is byte-identical
// wherever batch boundaries put a fault (TestCampaignMatchesMonolithic
// runs batch sizes 1, 7, 8, 64 and 65).
// Recordings carry a fingerprint (network shape + setting count) that
// RunBatch validates before replaying. Cancellation (the RunBatch
// context) and progress reporting (Options.OnObserve) never affect
// results — a cancelled replay returns an error, not a partial result.
package core
