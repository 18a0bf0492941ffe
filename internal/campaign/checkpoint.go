// Campaign checkpoints: a JSON snapshot of completed batches, written
// after every batch completion and reloaded on the next Run with the same
// CheckpointPath, so long campaigns survive interruption without
// re-simulating finished shards. The batch results themselves are
// deterministic, so a resumed campaign merges to the same outcome as an
// uninterrupted one.
package campaign

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"fmossim/internal/core"
	"fmossim/internal/fault"
)

// checkpointVersion is the current checkpoint schema: version 3 carries
// each completed batch in core.BatchResult's binary form (one base64
// string). Files of any other version (pre-versioned files decode as
// version 0) are refused with an explicit error rather than silently
// reinterpreted. A version 3 file written by a build that still saved
// mid-batch state has a "partial" object next to "done"; it is ignored,
// and the batches it described re-run.
const checkpointVersion = 3

// Checkpoint is the serializable resume state of a campaign: the campaign
// fingerprint (to refuse resuming a different campaign) plus the
// completed batches' results, keyed by batch index.
type Checkpoint struct {
	Version        int    `json:"version"`
	Sequence       string `json:"sequence"`
	NumSettings    int    `json:"num_settings"`
	NumFaults      int    `json:"num_faults"`
	NumNodes       int    `json:"num_nodes"`
	NumTransistors int    `json:"num_transistors"`
	BatchSize      int    `json:"batch_size"`
	NumBatches     int    `json:"num_batches"`
	// FaultsHash digests the universe in batch order (kind/node/transistor
	// per fault, Ledger.Faults), so it changes exactly when some batch
	// would hold other faults or hold them in another order; SimHash
	// digests the result-shaping simulator options (observed outputs, drop
	// policy, round limit). Resuming with a same-sized but differently cut
	// universe, or with different options, would silently attribute stale
	// batch results, so both are part of the fingerprint.
	FaultsHash uint64 `json:"faults_hash"`
	SimHash    uint64 `json:"sim_hash"`

	Done map[int]*core.BatchResult `json:"done"`
}

// hashFaults digests the fault list content, in the order given.
func hashFaults(faults []fault.Fault) uint64 {
	h := fnv.New64a()
	var buf [13]byte
	for _, f := range faults {
		buf[0] = byte(f.Kind)
		binary.LittleEndian.PutUint32(buf[1:5], uint32(f.Node))
		binary.LittleEndian.PutUint32(buf[5:9], uint32(f.Trans))
		h.Write(buf[:9])
	}
	return h.Sum64()
}

// hashSimOptions digests the result-shaping simulator options. Workers,
// the OnObserve hook, and Trim are deliberately excluded: results are
// bit-identical for every worker count, the hook never shapes them, and
// the redundancy trims shed executed work while keeping every BatchResult
// field byte-identical — all of them are legitimate things to change
// between resume runs.
func hashSimOptions(opts core.Options) uint64 {
	h := fnv.New64a()
	var id [4]byte
	for _, o := range opts.Observe {
		binary.LittleEndian.PutUint32(id[:], uint32(o))
		h.Write(id[:])
	}
	// Bytes 1-3 of the tail are zero and stay in the layout: dropping
	// them would change the key of every checkpoint already written.
	var tail [8]byte
	tail[0] = byte(opts.Drop)
	binary.LittleEndian.PutUint32(tail[4:8], uint32(opts.MaxRounds))
	h.Write(tail[:])
	return h.Sum64()
}

// matches verifies the checkpoint belongs to the same campaign.
func (c *Checkpoint) matches(want *Checkpoint) error {
	switch {
	case c.Sequence != want.Sequence || c.NumSettings != want.NumSettings:
		return fmt.Errorf("sequence %q (%d settings), campaign runs %q (%d)",
			c.Sequence, c.NumSettings, want.Sequence, want.NumSettings)
	case c.NumFaults != want.NumFaults || c.FaultsHash != want.FaultsHash:
		return fmt.Errorf("fault universe or its batch composition differs (%d faults, hash %x; campaign has %d, %x)",
			c.NumFaults, c.FaultsHash, want.NumFaults, want.FaultsHash)
	case c.NumNodes != want.NumNodes || c.NumTransistors != want.NumTransistors:
		return fmt.Errorf("network fingerprint %d/%d, campaign network is %d/%d",
			c.NumNodes, c.NumTransistors, want.NumNodes, want.NumTransistors)
	case c.SimHash != want.SimHash:
		return fmt.Errorf("simulator options differ (observe/drop/rounds)")
	case c.BatchSize != want.BatchSize || c.NumBatches != want.NumBatches:
		return fmt.Errorf("batching %d×%d, campaign uses %d×%d",
			c.NumBatches, c.BatchSize, want.NumBatches, want.BatchSize)
	}
	return nil
}

// Save writes the checkpoint as JSON.
func (c *Checkpoint) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// LoadCheckpoint reads a checkpoint previously written by Save. The
// schema version is read and checked before anything else is decoded: the
// rest of an older file does not have this schema's shape, and the error
// should say so rather than report whichever field broke first.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("campaign: reading checkpoint: %w", err)
	}
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("campaign: decoding checkpoint: %w", err)
	}
	if head.Version != checkpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint schema version %d, this build writes version %d; delete the checkpoint file (completed batches will re-run) or finish the campaign with the build that wrote it",
			head.Version, checkpointVersion)
	}
	c := &Checkpoint{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("campaign: decoding checkpoint: %w", err)
	}
	return c, nil
}

// saveFile atomically and durably replaces the checkpoint file: write to
// a temp file in the same directory, fsync it, rename over the target,
// then fsync the directory. Without the fsyncs the rename is atomic
// against concurrent readers but not against power loss — a crash could
// leave the new name pointing at data that never reached the disk.
func (c *Checkpoint) saveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".campaign-ck-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := c.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself. Directory fsync can fail on exotic
	// filesystems; the data fsync above already happened, so don't fail
	// the campaign over it.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// loadCheckpointFile loads path, returning (nil, nil) when the file does
// not exist yet.
func loadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCheckpoint(f)
}
