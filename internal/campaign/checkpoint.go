// Campaign checkpoints: an append-only log of completed batches, one line
// written (and fsynced) per batch completion and reloaded on the next Run
// with the same CheckpointPath, so long campaigns survive interruption
// without re-simulating finished shards. The batch results themselves are
// deterministic, so a resumed campaign merges to the same outcome as an
// uninterrupted one.
package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"fmossim/internal/core"
	"fmossim/internal/fault"
)

// checkpointVersion is the current checkpoint schema: version 4 is a log,
// a header line and then one line per completed batch. Files of any other
// version (the whole-document files of versions 0-3 included; a
// pre-versioned file decodes as version 0) are refused with an explicit
// error rather than silently reinterpreted.
const checkpointVersion = 4

// ckHeader is the log's first line: the campaign fingerprint, which
// refuses resuming a different campaign.
type ckHeader struct {
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
}

// ckLine is one completed batch in the log: its index, its result in
// core.BatchResult's binary form (base64 in the JSON line), and the CRC-32
// (IEEE) of that payload, continued from the index as the running
// checksum: crc32.Update(uint32(Batch), crc32.IEEETable, payload), which
// is zlib's crc32(payload, Batch). A flipped base64 character can still
// decode to a well-formed result — another one — and a flipped index
// digit to another batch of the same width, so the checksum covers both:
// no two indices give one payload the same CRC.
type ckLine struct {
	Batch  int    `json:"batch"`
	CRC    uint32 `json:"crc"`
	Result []byte `json:"result"`
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
// Trim is a stub nothing reads — so a checkpoint written with any of them
// resumes under any other, as one written with the old Trim switch on or
// off does.
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

// matches verifies the checkpoint belongs to the same campaign. The schema
// version is checked first: the other fields of an older file need not
// mean what they mean here, and the error should name the version.
func (c *ckHeader) matches(want *ckHeader) error {
	switch {
	case c.Version != want.Version:
		return fmt.Errorf("checkpoint schema version %d, this build writes version %d; delete the checkpoint file (completed batches will re-run) or finish the campaign with the build that wrote it",
			c.Version, want.Version)
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

// resumeLog reads a non-empty log for the campaign want describes and
// resumes its batches into l; the header must match want (version first)
// and end in a newline. Batch lines are read up to the first one that is
// cut short, does not decode or fails its CRC; keep is the length of the
// prefix before it, where the log goes on, and the batches of that line
// and of every line after it re-run. A line that passes its CRC but names
// no batch still to run is refused with ErrBatchShape, by Ledger.resume.
func resumeLog(data []byte, want *ckHeader, l *Ledger) (keep int, err error) {
	line, rest, whole := bytes.Cut(data, []byte("\n"))
	var head ckHeader
	if err = json.Unmarshal(line, &head); err != nil {
		err = fmt.Errorf("decoding header: %w", err)
	} else if err = head.matches(want); err == nil && !whole {
		err = fmt.Errorf("header line is cut short")
	}
	for whole && err == nil {
		keep = len(data) - len(rest)
		var ln ckLine
		var br core.BatchResult
		if line, rest, whole = bytes.Cut(rest, []byte("\n")); !whole || json.Unmarshal(line, &ln) != nil ||
			crc32.Update(uint32(ln.Batch), crc32.IEEETable, ln.Result) != ln.CRC || br.UnmarshalBinary(ln.Result) != nil {
			break
		}
		err = l.resume(ln.Batch, &br)
	}
	return keep, err
}

// ckLog is an open checkpoint log; its methods are safe for concurrent
// use.
type ckLog struct {
	mu sync.Mutex
	f  *os.File
}

// openLog opens the checkpoint log at path for the campaign head
// describes. A missing or empty file becomes a new log holding only the
// header, durably: the file is fsynced, then its directory, once. Any
// other file must be a log of this campaign; its intact batches are
// resumed into l and the file is truncated after the last of them.
func openLog(path string, head *ckHeader, l *Ledger) (*ckLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	c := &ckLog{f: f}
	data, err := io.ReadAll(f)
	if err == nil && len(data) == 0 {
		err = c.write(head)
		// Persist the new name. Directory fsync can fail on exotic
		// filesystems; don't fail the campaign over it.
		if d, derr := os.Open(filepath.Dir(path)); derr == nil {
			d.Sync()
			d.Close()
		}
	} else if err == nil {
		var keep int
		if keep, err = resumeLog(data, head, l); err == nil {
			err = f.Truncate(int64(keep)) // the file is in append mode: lines go on at keep
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	return c, nil
}

// append logs batch i's result.
func (c *ckLog) append(i int, br *core.BatchResult) error {
	payload, err := br.AppendBinary(nil)
	if err != nil {
		return err
	}
	return c.write(ckLine{Batch: i, CRC: crc32.Update(uint32(i), crc32.IEEETable, payload), Result: payload})
}

// write appends v to the log as one JSON line and fsyncs it. The encoder
// writes the line, newline included, in one call.
func (c *ckLog) write(v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := json.NewEncoder(c.f).Encode(v); err != nil {
		return err
	}
	return c.f.Sync()
}
