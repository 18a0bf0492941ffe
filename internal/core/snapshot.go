// Mid-sequence batch snapshots: serializable resume state so a batch can
// start at setting k instead of replaying the whole prefix.
//
// A BatchSnapshot captures everything path-dependent about a batch at a
// setting boundary — each fault's divergence records, detection and drop
// state, the equivalence-class bookkeeping, and the partial per-setting
// results — while the good-circuit state comes from the recording's
// snapshot frame at the same step (Options.SnapshotEvery on the Record
// side). Restoring rebuilds the exact batch state the uninterrupted run
// had at that boundary: records re-insert through the same setRecord path
// (so the packed lanes, interest refcounts, and sorted stores are
// identical), mirrors fast-forward in O(nodes) from the frame, and the
// replay continues from the next setting. The resumed BatchResult is
// byte-identical to the uninterrupted one; the prefix's fault work is not
// re-executed, which is what makes shard cost proportional to the live
// region (campaign checkpoints, cluster early stop).
package core

import (
	"context"
	"fmt"
	"slices"

	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// RecordEntry is one divergence record in a snapshot, kept as a sorted
// slice (not a map) so serialization and restore order are deterministic.
type RecordEntry struct {
	Node  netlist.NodeID `json:"n"`
	Value logic.Value    `json:"v"`
}

// BatchSnapshot is the serializable resume state of a FaultBatch at a
// setting boundary (after that setting's observation). It is produced by
// Options.OnSnapshot at settings where the recording carries a state
// frame, and consumed by RunBatchFrom / FaultBatch.RunRecordingFrom.
type BatchSnapshot struct {
	// NumFaults, NumNodes and NumTransistors fingerprint the batch and
	// network; restore refuses mismatches.
	NumFaults      int `json:"num_faults"`
	NumNodes       int `json:"num_nodes"`
	NumTransistors int `json:"num_transistors"`

	// Step is the recording step index consumed last (Steps[Step] carries
	// the matching state frame); Pattern/SettingDone locate it in the
	// sequence (SettingDone is the pattern-relative index of the last
	// consumed setting).
	Step        int `json:"step"`
	Pattern     int `json:"pattern"`
	SettingDone int `json:"setting_done"`

	// Per-fault state, indexed by batch fault index. Records is nil for
	// dropped and collapsed faults (their lanes hold nothing).
	Detected   []bool          `json:"detected"`
	Detections []Detection     `json:"detections"`
	Dropped    []bool          `json:"dropped"`
	Oscillated []bool          `json:"oscillated"`
	Records    [][]RecordEntry `json:"records"`

	// Counters.
	Retired     int `json:"retired"`
	LastRetired int `json:"last_retired"`
	SettingsRun int `json:"settings_run"`

	// Equivalence-class state (Options.Trim; zero-valued otherwise).
	Sigs           []uint64       `json:"sigs,omitempty"`
	ClassCancelled []bool         `json:"class_cancelled,omitempty"`
	Collapsed      []bool         `json:"collapsed,omitempty"`
	ClassPending   bool           `json:"class_pending,omitempty"`
	AnyCollapsed   bool           `json:"any_collapsed,omitempty"`
	LanesFreed     int            `json:"lanes_freed,omitempty"`
	CreditWork     switchsim.Work `json:"credit_work,omitempty"`

	// Partial results: the per-setting stats so far, the completed
	// patterns, the in-progress pattern's partial aggregate, and the
	// cumulative detection count.
	PerSetting     []SettingStats `json:"per_setting"`
	PerPattern     []PatternStats `json:"per_pattern"`
	PartialPattern PatternStats   `json:"partial_pattern"`
	DetectedTotal  int            `json:"detected_total"`
}

// captureSnapshot assembles an owned snapshot of the batch's state at the
// current setting boundary. step is the recording step index just
// consumed; br/ps/detTotal are the replay loop's partial results.
func (b *FaultBatch) captureSnapshot(step, pattern, settingDone int, br *BatchResult, ps *PatternStats, detTotal int) *BatchSnapshot {
	s := &BatchSnapshot{
		NumFaults:      len(b.faults),
		NumNodes:       b.nw.NumNodes(),
		NumTransistors: b.nw.NumTransistors(),
		Step:           step,
		Pattern:        pattern,
		SettingDone:    settingDone,
		Retired:        b.retired,
		LastRetired:    b.lastRetired,
		SettingsRun:    b.settingsRun,
		ClassPending:   b.classPending,
		AnyCollapsed:   b.anyCollapsed,
		LanesFreed:     b.lanesFreed,
		CreditWork:     b.creditWork,
		PerSetting:     slices.Clone(br.PerSetting),
		PerPattern:     slices.Clone(br.PerPattern),
		PartialPattern: *ps,
		DetectedTotal:  detTotal,
	}
	for _, fs := range b.faults {
		s.Detected = append(s.Detected, fs.detected)
		s.Detections = append(s.Detections, fs.det)
		s.Dropped = append(s.Dropped, fs.dropped)
		s.Oscillated = append(s.Oscillated, fs.oscillated)
		var recs []RecordEntry
		for i, n := range fs.recs.nodes {
			recs = append(recs, RecordEntry{Node: n, Value: fs.recs.vals[i]})
		}
		s.Records = append(s.Records, recs)
		if b.opts.Trim {
			s.Sigs = append(s.Sigs, fs.sig)
			s.ClassCancelled = append(s.ClassCancelled, fs.classCancelled)
			s.Collapsed = append(s.Collapsed, fs.collapsed)
		}
	}
	return s
}

// restoreSnapshot rebuilds the batch's state from a snapshot. The batch
// must be freshly constructed over the same fault list and options the
// snapshot was captured under; rec must carry a state frame at snap.Step.
func (b *FaultBatch) restoreSnapshot(rec *switchsim.Recording, snap *BatchSnapshot) error {
	switch {
	case b.started:
		return fmt.Errorf("core: batch already ran; restore needs a fresh FaultBatch")
	case !b.ownsGood:
		return fmt.Errorf("core: snapshot restore requires a replay-mode batch (NewFaultBatch)")
	case snap.NumFaults != len(b.faults):
		return fmt.Errorf("core: snapshot has %d faults, batch has %d", snap.NumFaults, len(b.faults))
	case snap.NumNodes != b.nw.NumNodes() || snap.NumTransistors != b.nw.NumTransistors():
		return fmt.Errorf("core: snapshot network fingerprint %d/%d does not match network (%d/%d)",
			snap.NumNodes, snap.NumTransistors, b.nw.NumNodes(), b.nw.NumTransistors())
	case len(snap.Detected) != len(b.faults) || len(snap.Detections) != len(b.faults) ||
		len(snap.Dropped) != len(b.faults) || len(snap.Oscillated) != len(b.faults) ||
		len(snap.Records) != len(b.faults):
		return fmt.Errorf("core: snapshot per-fault arrays are inconsistent with its fault count")
	case b.opts.Trim && (len(snap.Sigs) != len(b.faults) || len(snap.ClassCancelled) != len(b.faults) ||
		len(snap.Collapsed) != len(b.faults)):
		return fmt.Errorf("core: snapshot lacks equivalence-class state for a trimming batch")
	}
	frame := rec.SnapshotAt(snap.Step)
	if frame == nil {
		return fmt.Errorf("core: recording has no state frame at step %d (re-record with SnapshotEvery, or resume from a frame setting)", snap.Step)
	}

	for fi, fs := range b.faults {
		ci := CircuitID(fi + 1)
		// Purge the construction-time insertion records; the snapshot's
		// stores replace them wholesale.
		for _, n := range slices.Clone(fs.recs.nodes) {
			b.clearRecord(n, ci)
		}
		collapsed := len(snap.Collapsed) > 0 && snap.Collapsed[fi]
		switch {
		case snap.Dropped[fi] || collapsed:
			// The lane was surrendered (drop or class collapse): static
			// site interest goes too, exactly as dropCircuit /
			// collapseClasses left it.
			for _, n := range fs.sites {
				b.decInterest(n, ci)
			}
			fs.recs.release()
		default:
			for _, e := range snap.Records[fi] {
				b.setRecord(e.Node, ci, e.Value)
			}
		}
		fs.detected = snap.Detected[fi]
		fs.det = snap.Detections[fi]
		fs.dropped = snap.Dropped[fi]
		fs.oscillated = snap.Oscillated[fi]
		fs.collapsed = collapsed
		if b.opts.Trim {
			fs.sig = snap.Sigs[fi]
			fs.classCancelled = snap.ClassCancelled[fi]
		}
	}
	live := 0
	for _, fs := range b.faults {
		if !fs.dropped {
			live++
		}
	}
	b.live = live
	b.retired = snap.Retired
	b.lastRetired = snap.LastRetired
	b.settingsRun = snap.SettingsRun
	b.classPending = snap.ClassPending
	b.anyCollapsed = snap.AnyCollapsed
	b.lanesFreed = snap.LanesFreed
	b.creditWork = snap.CreditWork
	if b.opts.Trim && !snap.ClassPending {
		// Collapse (or cancellation) already ran before the snapshot:
		// reduce each representative's member list to the collapsed
		// subset, exactly as collapseClasses left it.
		for _, rfi := range b.classReps {
			rep := b.faults[rfi]
			kept := rep.classMembers[:0]
			for _, mfi := range rep.classMembers {
				if b.faults[mfi].collapsed {
					kept = append(kept, mfi)
				}
			}
			rep.classMembers = kept
		}
	}

	// Fast-forward the fault-free mirrors to the frame: O(nodes),
	// independent of the skipped prefix.
	b.good.LoadState(frame)
	b.prev.LoadState(frame)

	b.started = true
	b.patternIdx = snap.Pattern
	b.settingIdx = snap.SettingDone + 1
	return nil
}

// RunRecordingFrom resumes a batch replay from a mid-sequence snapshot:
// the batch state is restored (see BatchSnapshot), the good-state mirrors
// fast-forward from the recording's frame at snap.Step, and the replay
// continues with the next setting. The returned BatchResult is
// byte-identical to an uninterrupted RunRecording. The batch must be
// freshly constructed over the same fault list and result-shaping options
// the snapshot was captured under.
func (b *FaultBatch) RunRecordingFrom(ctx context.Context, rec *switchsim.Recording, seq *switchsim.Sequence, snap *BatchSnapshot) (*BatchResult, error) {
	return b.runRecording(ctx, rec, seq, snap)
}

// RunBatchFrom is RunBatch resuming from a mid-sequence snapshot.
func RunBatchFrom(ctx context.Context, tab *switchsim.Tables, faults []fault.Fault, rec *switchsim.Recording, seq *switchsim.Sequence, snap *BatchSnapshot, opts Options) (*BatchResult, error) {
	b, err := NewFaultBatch(tab, faults, opts)
	if err != nil {
		return nil, err
	}
	return b.RunRecordingFrom(ctx, rec, seq, snap)
}
