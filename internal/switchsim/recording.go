// The good-circuit trajectory as a first-class artifact.
//
// A Solver's per-settle Trajectory is borrowed scratch: it is overwritten
// by the next recording settle. A Recording promotes the full good-circuit
// run — the power-on initialization plus one StepTrace per input setting —
// to an owned, serializable value. Capturing it once decouples good-circuit
// simulation from faulty-circuit execution: any number of fault batches can
// replay the same Recording (adopting its trajectories, syncing their
// mirrors from its deltas, diffing against its change sets) without ever
// re-running the good-circuit solver.
package switchsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
)

// StepTrace is the complete record of one good-circuit step — the power-on
// initialization or one input setting — carrying everything a faulty-batch
// consumer needs to execute the step without a good-circuit solver:
//
//   - InputChanges re-applies the setting to the consumer's mirrors
//     (assignments that matched the previous value are dropped: they
//     perturb nothing in any circuit, faulty ones included);
//   - Traj is the settle trajectory faulty replays adopt from; its lists
//     (Trajectory.Lists) are the step's explored and changed sets, which
//     drive activity scheduling and sync the consumer's mirrors.
//
// In a Recording, steps whose trajectories are equal in content share
// one: nothing may write through Traj.
type StepTrace struct {
	// Init marks the power-on initialization step (Steps[0] of a
	// Recording): every storage node is perturbed and every fault active.
	Init bool
	// InputChanges lists the input nodes whose value changed this step,
	// with the new values.
	InputChanges []Change
	// Oscillated reports the settle hit the round limit; the trajectory is
	// then unreliable as an adoption oracle and consumers must fall back
	// to full replays for this step.
	Oscillated bool
	// Traj is the recorded settle trajectory. A nil one reads as a settle
	// that explored and changed nothing.
	Traj *Trajectory
	// GoodWork is the solver work units the good-circuit settle consumed.
	GoodWork int64
}

// Recording is the captured good-circuit trajectory of an entire test
// sequence: Steps[0] is the initialization, Steps[1:] one entry per input
// setting in sequence order. It is immutable once captured and safe for
// concurrent replay by any number of consumers. A march test settles the
// same way at address after address, so a held recording keeps each
// distinct trajectory once: every step whose trajectory is equal in
// content to an earlier step's points at that one (Append,
// DecodeRecordingBytes), so nothing may write through Steps[i].Traj.
type Recording struct {
	// NumNodes and NumTransistors fingerprint the network the recording
	// was captured over; consumers refuse mismatched networks.
	NumNodes, NumTransistors int
	// Steps holds the per-step traces, initialization first.
	Steps []StepTrace

	// intern finds the trajectories of Steps while Append builds them;
	// nil in a finished recording (see Append).
	intern trajSet
}

// NewRecording returns an empty recording fingerprinted for nw.
func NewRecording(nw *netlist.Network) *Recording {
	return &Recording{NumNodes: nw.NumNodes(), NumTransistors: nw.NumTransistors()}
}

// NumSettings returns the number of recorded input settings (the
// initialization step excluded).
func (r *Recording) NumSettings() int {
	if len(r.Steps) == 0 {
		return 0
	}
	return len(r.Steps) - 1
}

// GoodWork returns the total good-circuit solver work units captured in
// the recording, initialization included.
func (r *Recording) GoodWork() int64 {
	var t int64
	for i := range r.Steps {
		t += r.Steps[i].GoodWork
	}
	return t
}

// SettingWork returns the good-circuit solver work units of input setting
// si, settings counted from 0 in sequence order (Steps[0], the
// initialization, is no setting).
func (r *Recording) SettingWork(si int) int64 { return r.Steps[si+1].GoodWork }

// Validate checks the recording against a network fingerprint and an
// expected setting count (pass -1 to skip the count check).
func (r *Recording) Validate(nw *netlist.Network, settings int) error {
	if r.NumNodes != nw.NumNodes() || r.NumTransistors != nw.NumTransistors() {
		return fmt.Errorf("switchsim: recording fingerprint %d nodes/%d transistors does not match network (%d/%d)",
			r.NumNodes, r.NumTransistors, nw.NumNodes(), nw.NumTransistors())
	}
	if len(r.Steps) == 0 || !r.Steps[0].Init {
		return fmt.Errorf("switchsim: recording has no initialization step")
	}
	if settings >= 0 && r.NumSettings() != settings {
		return fmt.Errorf("switchsim: recording has %d settings, sequence needs %d", r.NumSettings(), settings)
	}
	return nil
}

// Append copies a borrowed step trace (whose slices alias solver scratch)
// into the recording, oscillated or not. The input changes are copied; the
// trajectory is copied unless one equal in content is already held, which
// the step then shares. The table that finds it lives while the steps are
// appended: the Append that fills the capacity of Steps drops it, so a
// builder that reserves its step count (as core.RecordTables does) leaves
// a finished recording without one. An Append after that re-indexes the
// steps already held.
func (r *Recording) Append(t *StepTrace) {
	if r.intern == nil {
		r.intern = trajSet{}
		for i := range r.Steps {
			if tr := r.Steps[i].Traj; tr != nil {
				if k, h := r.intern.find(tr); h == nil {
					r.intern[k] = tr
				}
			}
		}
	}
	r.Steps = append(r.Steps, t.owned(r.intern))
	if len(r.Steps) == cap(r.Steps) {
		r.intern = nil
	}
}

// owned returns a copy of the step that shares no storage with t: its
// input changes in an exact-size array (nil when empty), its trajectory
// the one intern holds.
func (t *StepTrace) owned(intern trajSet) StepTrace {
	st := *t
	st.InputChanges = cloneOrNil(t.InputChanges)
	if t.Traj != nil {
		st.Traj = intern.hold(t.Traj)
	}
	return st
}

// trajSet interns held trajectories by content. It maps a content hash to
// a held trajectory; a hash whose slot holds a different trajectory probes
// the next key, so the full compare alone decides what is shared. It is
// only ever looked up, never iterated.
type trajSet map[uint64]*Trajectory

// hold returns the held trajectory equal in content to tr, adding an
// exact-size copy of tr when there is none.
func (s trajSet) hold(tr *Trajectory) *Trajectory {
	k, h := s.find(tr)
	if h == nil {
		h = tr.held()
		s[k] = h
	}
	return h
}

// find returns the held trajectory equal in content to tr, or nil and the
// free key tr goes in.
func (s trajSet) find(tr *Trajectory) (uint64, *Trajectory) {
	k := tr.contentHash()
	for h, ok := s[k]; ok; h, ok = s[k] {
		if h.sameContent(tr) {
			return k, h
		}
		k++
	}
	return k, nil
}

// cloneOrNil returns an exact-size copy of src, nil when src is empty.
func cloneOrNil[T any](src []T) []T {
	if len(src) == 0 {
		return nil
	}
	out := make([]T, len(src))
	copy(out, src)
	return out
}

// Serialization: a compact varint-framed binary format, so a trajectory
// captured on one machine (or in one process) can be stored and replayed
// by later fault campaigns without re-simulating the good circuit.

// recordingMagic versions the on-disk format. It is the only version
// Encode writes and the only one DecodeRecording accepts. FMOSREC2, whose
// steps also held copies of their trajectory's lists, is refused by name,
// as is a step flagged as carrying a state frame (flagFrame).
const recordingMagic = "FMOSREC3"

// Fingerprint returns the recording's content fingerprint: the lowercase
// hex SHA-256 of its Encode serialization. The serialization carries the
// trajectory and never its timing (see Encode), so every capture of one
// circuit and sequence has the same fingerprint, and the fingerprint names
// a trajectory across process and machine boundaries — a distributed
// campaign coordinator uploads the encoded recording to each worker once
// and every shard job references it by fingerprint (see FingerprintBytes
// for hashing bytes already in hand).
func (r *Recording) Fingerprint() (string, error) {
	h := sha256.New()
	if err := r.Encode(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// FingerprintBytes returns the fingerprint of an already-encoded
// recording: the lowercase hex SHA-256 of data.
func FingerprintBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

const (
	flagInit byte = 1 << iota
	flagOscillated
	flagTraj
	flagFrame // a state frame follows the step: no longer written, refused on decode
)

// encodeChunk is the size at which a StepWriter hands its buffer to the
// writer.
const encodeChunk = 32 << 10

// StepWriter encodes a recording one step at a time, as it is captured,
// through one chunk-sized buffer: the header goes out first, with the step
// count the caller declares, then one step per Append. The bytes are the
// ones Encode writes for the recording Recording.Append builds from the
// same steps, so a caller that only needs the wire form — and its
// fingerprint — never holds the decoded trajectory. Encode writes through
// it too: the step encoding has one implementation. Write errors stick and
// are reported by Close.
type StepWriter struct {
	w     io.Writer
	chunk int // buffered bytes at which buf goes to w
	buf   []byte
	idLen int // the longest varint of a node id or a list length
	left  int // steps the header declared and no Append has written yet
	err   error
}

// NewStepWriter writes the header of a recording of steps steps over a
// network of numNodes nodes and numTransistors transistors to w, and
// returns the writer its steps go through. A capture declares
// 1+seq.NumSettings() steps: the initialization, then one per setting.
func NewStepWriter(w io.Writer, numNodes, numTransistors, steps int) *StepWriter {
	return newStepWriter(w, encodeChunk, numNodes, numTransistors, steps)
}

func newStepWriter(w io.Writer, chunk, numNodes, numTransistors, steps int) *StepWriter {
	sw := &StepWriter{w: w, chunk: chunk, buf: make([]byte, 0, 2*chunk),
		idLen: UvarintLen(uint64(numNodes)), left: steps}
	sw.buf = append(sw.buf, recordingMagic...)
	sw.buf = binary.AppendUvarint(sw.buf, uint64(numNodes))
	sw.buf = binary.AppendUvarint(sw.buf, uint64(numTransistors))
	sw.buf = binary.AppendUvarint(sw.buf, uint64(steps))
	return sw
}

// Append encodes one step, which may be borrowed: nothing of it is kept.
// It first makes room for the step's bound, so the buffer grows only for a
// step larger than any before it, and hands the buffer to w once it holds
// a chunk.
func (sw *StepWriter) Append(t *StepTrace) {
	if sw.err != nil {
		return
	}
	if sw.left == 0 {
		sw.err = fmt.Errorf("switchsim: more steps written than the recording header declared")
		return
	}
	sw.left--
	if need := t.encodedBound(sw.idLen); cap(sw.buf)-len(sw.buf) < need {
		sw.flush()
		if cap(sw.buf) < need {
			sw.buf = make([]byte, 0, need)
		}
	}
	sw.buf = t.appendBinary(sw.buf)
	if len(sw.buf) >= sw.chunk {
		sw.flush()
	}
}

func (sw *StepWriter) flush() {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
}

// Close writes what is buffered and returns the first error: a failed
// write, or a step count other than the header's. It does not close the
// underlying writer.
func (sw *StepWriter) Close() error {
	if sw.err == nil && sw.left != 0 {
		sw.err = fmt.Errorf("switchsim: %d of the recording's declared steps were never written", sw.left)
	}
	sw.flush()
	return sw.err
}

// Encode writes the recording in the versioned binary format, through a
// StepWriter. Each step has one reserved byte, written as 0: it held the
// capture's wall-clock time until the fingerprint became content-only
// (time belongs to a capture run, not to the trajectory, and a byte stream
// that carried it would never fingerprint the same twice). Every step is
// written in full, a trajectory that steps share once for each of them.
func (r *Recording) Encode(w io.Writer) error {
	sw := NewStepWriter(w, r.NumNodes, r.NumTransistors, len(r.Steps))
	for i := range r.Steps {
		sw.Append(&r.Steps[i])
	}
	return sw.Close()
}

// UvarintLen returns the length of v's uvarint encoding. Over a network of
// n nodes, UvarintLen(n) is the longest varint of a node id or a list
// length.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// encodedBound returns an upper bound on the step's encoded size when its
// node ids and list lengths take at most idLen bytes each.
func (st *StepTrace) encodedBound(idLen int) int {
	const big = binary.MaxVarintLen64
	nodes, changes, lists := 0, len(st.InputChanges), 1
	n := 2 + 2*big // flags and reserved slot; work, round count
	if tr := st.Traj; tr != nil {
		nodes += len(tr.nodes)
		changes += len(tr.changes)
		lists += 2 * int(tr.vics)
		n += big * tr.NumRounds()
	}
	return n + idLen*(nodes+changes+lists) + changes
}

func (st *StepTrace) appendBinary(b []byte) []byte {
	var flags byte
	if st.Init {
		flags |= flagInit
	}
	if st.Oscillated {
		flags |= flagOscillated
	}
	if st.Traj != nil {
		flags |= flagTraj
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(st.GoodWork))
	b = append(b, 0) // reserved
	b = appendChanges(b, st.InputChanges)
	if tr := st.Traj; tr != nil {
		b = binary.AppendUvarint(b, uint64(tr.NumRounds()))
		vr := vicReader{tr: tr}
		for r := range tr.NumRounds() {
			lo, hi := tr.RoundSpan(r)
			b = binary.AppendUvarint(b, uint64(hi-lo))
			for range hi - lo {
				members, changes := vr.next()
				b = appendNodes(b, members)
				b = appendChanges(b, changes)
			}
		}
	}
	return b
}

func appendNodes(b []byte, nodes []netlist.NodeID) []byte {
	b = binary.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = binary.AppendUvarint(b, uint64(n))
	}
	return b
}

func appendChanges(b []byte, chs []Change) []byte {
	b = binary.AppendUvarint(b, uint64(len(chs)))
	for _, ch := range chs {
		b = binary.AppendUvarint(b, uint64(ch.Node))
		b = append(b, byte(ch.Value))
	}
	return b
}

// DecodeRecording reads a recording previously written by Encode.
func DecodeRecording(r io.Reader) (*Recording, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("switchsim: reading recording: %w", err)
	}
	return DecodeRecordingBytes(data)
}

// minStepBytes is the shortest encoding of a step: flags, work, the
// reserved slot and an empty input list.
const minStepBytes = 4

// DecodeRecordingBytes decodes a recording held in memory. The result
// shares no storage with data, and its steps share trajectories as
// Append's do. Each step's reserved slot is skipped, whatever the stream
// carries there.
func DecodeRecordingBytes(data []byte) (*Recording, error) {
	if len(data) < len(recordingMagic) {
		return nil, fmt.Errorf("switchsim: reading recording header: %w", io.ErrUnexpectedEOF)
	}
	if magic := string(data[:len(recordingMagic)]); magic == "FMOSREC2" {
		return nil, fmt.Errorf("switchsim: recording format FMOSREC2 is retired (its steps held copies of their trajectory's lists); re-record as %s", recordingMagic)
	} else if magic != recordingMagic {
		return nil, fmt.Errorf("switchsim: not a recording (bad magic %q)", magic)
	}
	d := &decoder{VarintReader: VarintReader{Buf: data[len(recordingMagic):]}, intern: trajSet{}}
	rec := &Recording{
		NumNodes:       int(d.Uvarint()),
		NumTransistors: int(d.Uvarint()),
	}
	nSteps := d.Uvarint()
	if d.Err == nil && nSteps > uint64(len(d.Buf)/minStepBytes) {
		return nil, fmt.Errorf("switchsim: recording step count %d exceeds its %d bytes", nSteps, len(d.Buf))
	}
	d.maxNode = uint64(rec.NumNodes)
	// Preallocation is bounded: a corrupt header must not provoke a huge
	// up-front allocation; append grows the rest while the decoder
	// validates each step.
	rec.Steps = make([]StepTrace, 0, min(nSteps, 1<<16))
	for i := uint64(0); i < nSteps && d.Err == nil; i++ {
		rec.Steps = append(rec.Steps, d.step())
	}
	if d.Err != nil {
		return nil, fmt.Errorf("switchsim: decoding recording: %w", d.Err)
	}
	return rec, nil
}

// decoder reads varints off the front of its input with sticky error
// handling (VarintReader) and node-range validation. A step is parsed into
// the scratch lists (which grow only as input is consumed, so a lying
// length prefix cannot provoke an allocation) and then copied out to
// exact-size arrays, its trajectory interned as Recording.Append interns
// it.
type decoder struct {
	VarintReader
	maxNode uint64

	changes []Change
	traj    Trajectory
	intern  trajSet
}

// step parses one step into scratch and returns an owned copy.
func (d *decoder) step() StepTrace {
	d.changes = d.changes[:0]
	flags := d.Byte()
	if flags&flagFrame != 0 {
		d.Fail(fmt.Errorf("recording carries state frames, which this build no longer reads; re-record"))
		return StepTrace{}
	}
	st := StepTrace{
		Init:       flags&flagInit != 0,
		Oscillated: flags&flagOscillated != 0,
		GoodWork:   int64(d.Uvarint()),
	}
	d.Uvarint() // reserved slot
	st.InputChanges = d.changeList(&d.changes)
	if flags&flagTraj != 0 {
		tr := &d.traj
		tr.reset()
		nRounds := d.Uvarint()
		for r := uint64(0); r < nRounds && d.Err == nil; r++ {
			nVics := d.Uvarint()
			for v := uint64(0); v < nVics && d.Err == nil; v++ {
				d.nodeList(&tr.nodes)
				d.changeList(&tr.changes)
				tr.endVicinity()
			}
			tr.endRound()
		}
		st.Traj = tr
	}
	if d.Err != nil {
		return StepTrace{}
	}
	return st.owned(d.intern)
}

func (d *decoder) node() netlist.NodeID {
	v := d.Uvarint()
	if d.Err == nil && v >= d.maxNode {
		d.Err = fmt.Errorf("node id %d out of range (%d nodes)", v, d.maxNode)
	}
	return netlist.NodeID(v)
}

// nodeList parses one node list onto the end of *dst and returns the
// window holding it. The window stays readable until the next step:
// growing the scratch moves later appends to a new array and leaves this
// one as it is.
func (d *decoder) nodeList(dst *[]netlist.NodeID) []netlist.NodeID {
	n := d.Uvarint()
	if d.Err == nil && n > d.maxNode {
		d.Err = fmt.Errorf("node list length %d exceeds node count %d", n, d.maxNode)
	}
	lo := len(*dst)
	for i := uint64(0); i < n && d.Err == nil; i++ {
		*dst = append(*dst, d.node())
	}
	return (*dst)[lo:]
}

// changeList is nodeList for change lists.
func (d *decoder) changeList(dst *[]Change) []Change {
	n := d.Uvarint()
	if d.Err == nil && n > d.maxNode {
		d.Err = fmt.Errorf("change list length %d exceeds node count %d", n, d.maxNode)
	}
	lo := len(*dst)
	for i := uint64(0); i < n && d.Err == nil; i++ {
		node := d.node()
		v := logic.Value(d.Byte())
		if d.Err == nil && v > logic.X {
			d.Err = fmt.Errorf("bad logic value %d", v)
		}
		*dst = append(*dst, Change{Node: node, Value: v})
	}
	return (*dst)[lo:]
}
