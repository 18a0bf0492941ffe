// Package campaign is the sharded fault-campaign engine: it records the
// good circuit's trajectory once, partitions the fault universe into
// batches, replays each batch independently against the recording, and
// merges the outcomes deterministically.
//
// This is the trajectory-decoupled execution model the FMOSSIM cost
// analysis points at: the good circuit is simulated exactly once per
// sequence (core.Record), and every fault batch pays only fault-side,
// activity-proportional work. Because a batch's memory footprint scales
// with its width (workers × nodes + live divergence) rather than with the
// whole universe, a campaign can stream an arbitrarily large fault list
// through bounded memory, run batches concurrently, stop early at a
// coverage target, resume from a checkpoint of completed batches, report
// per-setting progress (Options.Progress), and cancel cooperatively
// (the Run context).
//
// # Early stop and cancellation
//
// Coverage, early stop and the ruling on a caller's cancel have one
// definition, kept by one type — the Ledger — and one loop drives it:
// Execute's shard pool, for a local campaign, for a job server's shard
// jobs (internal/server, through Execute — Run without the merge), and
// for the distributed coordinator (internal/distrib), whose
// Options.Remote hook only says where a batch runs and how a failed one
// is retried. A distributed campaign therefore writes and resumes the
// same checkpoint log as a local one. A Remote campaign neither records
// nor reads a recording — its batches replay one held elsewhere — so its
// caller ends it with Ledger.Finish and the good-circuit work of each
// setting, the one column of a recording the merge reads; Run, which
// would take that column from a recording, refuses it.
//
//   - ProgressEvent.Detected counts a detection when it is observed: each
//     batch reports its cumulative detection count after every setting,
//     the ledger keeps each batch's highest report and delivers their sum
//     (batches resumed from a checkpoint are counted before the first
//     event). Duplicate, stale and restarted-from-zero reports never lower
//     it, and events are delivered one at a time, so Detected and
//     BatchesDone are monotonic across the events of one campaign.
//   - Early stop fires when that same counter reaches
//     ceil(CoverageTarget × universe). From then on no batch that has not
//     started starts; every batch that has started runs to completion and
//     is merged (a shard whose worker dies is still retried); batches that
//     never started are reported as skipped, per fault and in
//     Result.BatchesSkipped. A batch is a site-ordered window (see "Batch
//     composition"), so early stop skips whole windows of fault sites,
//     not a tail of the caller's list.
//   - A context cancelled at or after that point is a no-op: the
//     early-stopped result stands. The ruling is made before the event
//     that shows the target met is delivered, so a caller may cancel from
//     inside the Progress callback the moment Coverage() reaches the
//     target and still get the result, not an error.
//   - A context cancelled before that point aborts the campaign: no new
//     batch starts, in-flight batches stop between settings, and the
//     error wraps ctx's. If every batch had already completed, the result
//     stands.
//
// # Batch composition
//
// Which faults share a batch is the Ledger's to decide, once, for every
// scheduler. It sorts the universe by each fault's anchor site — the node
// of a node fault, the lower channel terminal of a transistor fault —
// breaking ties on (kind, node, transistor), and cuts the sorted list into
// windows of BatchSize; each window keeps its faults in ascending universe
// order, so a universe that fits one batch runs as given. Faults that
// share a site wake up in the same settings, so they share a batch's
// per-setting replay index, and materialization-equivalent faults (a
// duplicate, a bridge and the stuck-closed fault on its transistor) land
// in one batch, where every batch's redundancy trimming collapses them
// onto one lane (internal/core, trim.go). The order depends on the
// universe's content, not on the caller's order of it, and it is not a
// knob. Ledger.Faults is the universe in batch order; progress indices and
// Result.PerFault are mapped back to universe indices, so a caller never
// sees the order.
//
// # Recording fingerprint contract
//
// A switchsim.Recording is bound to the exact (network, sequence) pair it
// was captured over: it carries the network's node and transistor counts
// and the sequence's setting count, and Run validates them before any
// batch replays (switchsim.Recording.Validate). A recording that was
// serialized (Encode/DecodeRecording) and shipped to another process
// revalidates identically there. A Result carries no recording: a caller
// that replays one trajectory across campaigns records it once
// (core.Record) and passes it in Options.Recording. Checkpoints extend
// the same idea to the
// campaign level: a checkpoint fingerprints the sequence name and setting
// count, the fault universe (a content hash taken in batch order, so it
// changes exactly when a batch would hold other faults), the network
// shape, the result-shaping simulator options, and the batching; Run
// refuses to resume from a checkpoint whose fingerprint differs, because
// attributing stale batch results to a different campaign would be silent
// corruption. Worker counts and progress callbacks are deliberately
// outside the fingerprint: they never change results.
//
// A checkpoint is an append-only log: the fingerprint on its first line,
// then one line per completed batch, each carrying the batch index, the
// result in core.BatchResult's binary form, and a CRC-32 over both,
// written and fsynced once as the batch completes. Resuming reads the
// lines up to the first one that is cut short, does not decode or fails
// its CRC — what a crash mid-write leaves — truncates the file there and
// re-runs those batches; results are deterministic, so the merge does not
// change. The fingerprint says which campaign a file belongs to, not that
// its batches are well-formed: the Ledger checks every batch result it is
// handed — from a checkpoint or from a worker — against the batch's
// window, the sequence and the network's nodes, and refuses a mismatch,
// or a checkpoint line for a batch already resumed or outside the
// campaign, with ErrBatchShape.
//
// # Batch/merge determinism guarantee
//
// Each fault's simulation depends only on the recorded trajectory and its
// own state, never on which batch hosts it, which worker executes it, or
// when its batch runs relative to others. Batches are merged at
// input-setting granularity — their rows folded into integer sums, which
// do not depend on the order batches arrive in — and every per-fault
// outcome is scattered back to its universe index, so a campaign's
// detections (with their pattern/setting coordinates), final divergence
// records, and deterministic statistics (work units, active-circuit
// counts, live counts) are bit-identical to a monolithic core.Simulator
// run over the same fault list, for every batch size, shard count, and
// worker count, with no exempt fields: a result carries no clock. Early stop
// (CoverageTarget) intentionally breaks the equivalence: skipped batches
// are reported per fault, never silently counted. The guarantee is
// asserted across batch/worker combinations by TestCampaignMatchesMonolithic.
package campaign
