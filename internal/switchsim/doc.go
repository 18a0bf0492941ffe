// Package switchsim implements the switch-level simulation kernel shared
// by the logic simulator (MOSSIM-II equivalent) and the concurrent fault
// simulator (FMOSSIM, internal/core).
//
// The kernel computes the behavior of a circuit for each change in network
// inputs by repeatedly computing the steady-state response of the network
// until a stable state is reached. Only node states in the vicinity of a
// perturbed node are computed, where a node is perturbed if it is the
// source or drain of a transistor that has changed state, or if it is
// connected by a conducting transistor to an input node that has changed
// state. The vicinity of a node is the set of storage nodes connected by
// paths of conducting (state 1 or X) transistors that do not pass through
// input nodes: the model's dynamic locality.
//
// The main components:
//
//   - Tables: immutable per-network structure (CSR adjacency, input
//     flags), built once and safely shared by any number of circuits,
//     solvers, batches, and server jobs.
//   - Circuit: the dynamic state of one circuit instance.
//   - Solver: the steady-state settling engine, with one unit-delay loop,
//     SettleReplayIndexed. With no ReplayIndex it solves every pending
//     vicinity (Settle); with one it is the replay faulty circuits use to
//     adopt provably identical regions of the good circuit's settle
//     (DESIGN.md, "One settle loop"). Its vicinity kernel gathers once: the walk that collects a vicinity's members
//     also summarizes each member's input-like neighbours and lists its
//     conducting edges to other members, and the two relaxation phases
//     read only that — same visiting order, same fixpoints, same work
//     counters as a relaxation over the full channel lists (DESIGN.md,
//     "Vicinity kernel").
//   - Simulator: the user-facing logic simulator driving test sequences.
//   - Recording/StepTrace: the serializable trajectory artifact described
//     below.
//   - ReplayIndex: the word-packed lane primitive of the concurrent fault
//     simulator, a per-setting index whose flag-then-mark closure over a
//     recording's trajectories is built once per 64-circuit lane word —
//     and only for a setting that activates a circuit — and shared by
//     every circuit in it (internal/core packs faulty circuits into
//     lanes; see that package's doc for the lane lifecycle). It also
//     compiles the good circuit's own wave through the trajectory's
//     leading rounds (ReplayIndex.Compile: the pend queue at each round
//     boundary and the switch flips of each round), and a replay whose
//     seeds are the good circuit's skips the rounds before the first one
//     that flags a vicinity for its lane, flips a transistor it pins, or
//     lies past its round limit — same SettleResult, same Work, less
//     walking (DESIGN.md, "Riding the good wave"). ReplayStats counts what
//     was skipped; it is diagnostic and belongs to no result.
//
// # Recording fingerprint contract
//
// A Recording is the good circuit's captured trajectory over one test
// sequence: per-setting input deltas, changed and explored sets, the
// initialization settle, and the per-vicinity adoption trajectories. It
// is bound to the exact network and sequence it was captured over, and it
// carries a structural fingerprint — the network's node and transistor
// counts plus the recording's setting count — that Validate checks
// against the replaying network and sequence before any use. Encode and
// DecodeRecording round-trip the artifact through a varint binary format,
// fingerprint included, so a recording captured in one process replays
// in another (or on another machine) with the same validation and the
// same results. The structural fingerprint is deliberately not
// content-addressed: two networks with equal shape but different
// connectivity defeat it, so callers shipping recordings across trust
// boundaries should pair them with their netlist source.
//
// The content fingerprint (Recording.Fingerprint, FingerprintBytes) is
// the SHA-256 of the encoding, and the encoding's content is the
// trajectory, never timing: a StepTrace carries no clock, Encode writes 0
// in the per-step slot that once held one and the decoder skips the slot,
// so every capture of one circuit and sequence fingerprints the same.
//
// A Trajectory is three flat, pointer-free arrays: nodes, changes, and one
// slab holding the vicinity boundaries as bits (one per list entry, two
// per vicinity) and a table of round ends. Its lists are read whole through Lists or vicinity by
// vicinity in order; random access to a vicinity is the ReplayIndex's,
// which rebuilds the list starts as it indexes each round. The recording
// solver appends straight into the arrays. A step holds each fact of its
// settle once: what it explored and changed are the trajectory's member
// and change lists, not copies beside them. An owned step
// (Recording.Append, DecodeRecording) copies its input changes into an
// exact-size array and holds its trajectory once per distinct content: a
// step whose trajectory equals an earlier step's shares that one, and
// otherwise the arrays are copied to exact size — four allocations whatever
// the vicinity count. A held trajectory is read-only.
// One encoder writes every step, the StepWriter: it encodes a capture
// step by step as it is produced, without holding the recording, and
// Encode (one pass, one chunk buffer) is that writer over a recording's
// steps.
// DecodeRecordingBytes reads the byte slice in place. DESIGN.md ("Wire
// forms") has the layout.
package switchsim
