package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// ckBench is a small checkpointed campaign — a 4×4 RAM, fifteen stuck-at
// faults in three batches, the first patterns of sequence 1 — with the
// file one run of it left behind. It is small so that the file is: the
// fuzzer minimizes every input it keeps, byte by byte.
type ckBench struct {
	nw     *netlist.Network
	faults []fault.Fault
	seq    *switchsim.Sequence
	opts   Options
	file   []byte
}

func newCkBench(tb testing.TB) *ckBench {
	tb.Helper()
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	seq := *march.Sequence1(m)
	seq.Patterns = seq.Patterns[:6]
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	b := &ckBench{nw: m.Net, faults: faults[len(faults)-15:], seq: &seq}
	b.opts = Options{
		Sim:       core.Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1},
		BatchSize: 5,
		Shards:    1,
	}
	b.file = b.run(tb, b.opts)
	return b
}

// run executes the campaign against a fresh checkpoint path and returns
// the file it leaves.
func (b *ckBench) run(tb testing.TB, opts Options) []byte {
	tb.Helper()
	opts.CheckpointPath = filepath.Join(tb.TempDir(), "campaign.ck")
	if _, err := Run(context.Background(), b.nw, b.faults, b.seq, opts); err != nil {
		tb.Fatal(err)
	}
	file, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		tb.Fatal(err)
	}
	return file
}

// wrongWidth is the file with batch 1 saved three faults wide: a valid
// result, of some other batch.
func (b *ckBench) wrongWidth(tb testing.TB) []byte {
	tb.Helper()
	ck, err := LoadCheckpoint(bytes.NewReader(b.file))
	if err != nil {
		tb.Fatal(err)
	}
	rec := core.Record(b.nw, b.seq, b.opts.Sim)
	ck.Done[1], err = core.RunBatch(nil, switchsim.NewTables(b.nw), b.faults[:3], rec, b.seq, b.opts.Sim)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointBytesStable: the result carries no clock, so two runs of
// one campaign — here with different shard counts — leave byte-identical
// checkpoint files.
func TestCheckpointBytesStable(t *testing.T) {
	b := newCkBench(t)
	two := b.opts
	two.Shards = 2
	if again := b.run(t, two); !bytes.Equal(again, b.file) {
		t.Fatalf("two runs of one campaign left different checkpoints (%d and %d bytes)", len(b.file), len(again))
	}
}

// TestSimHashGolden pins the options key to the values commit aaeea9d
// computes — the last commit that wrote the two ablation flags, always
// zero, into bytes 1 and 2 — so a checkpoint written before they left
// still resumes. RAM256's output has an id above 255: the key of the
// observed ids must not leak into the zero bytes that follow it.
func TestSimHashGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		m         *ram.RAM
		drop      core.DropPolicy
		maxRounds int
		want      uint64
	}{
		{"ram64", ram.RAM64(), 0, 0, 0xd44862f117ecb7c0},
		{"ram64/drop1/rounds50", ram.RAM64(), 1, 50, 0x32e3429032a34413},
		{"ram256", ram.RAM256(), 0, 0, 0x8ba5e9af19512118},
		{"ram256/drop1/rounds50", ram.RAM256(), 1, 50, 0xeaeb48436d501b4b},
	} {
		opts := core.Options{Observe: []netlist.NodeID{tc.m.DataOut}, Drop: tc.drop, MaxRounds: tc.maxRounds}
		if got := hashSimOptions(opts); got != tc.want {
			t.Errorf("%s (observe %d): SimHash %#x, want %#x", tc.name, tc.m.DataOut, got, tc.want)
		}
	}
}

// TestCheckpointWrongWidthRefused: a checkpoint whose fingerprint matches
// but whose batch 1 is three faults wide is refused by name, not merged
// with the rest of the window reading as undetected.
func TestCheckpointWrongWidthRefused(t *testing.T) {
	b := newCkBench(t)
	opts := b.opts
	opts.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ck")
	if err := os.WriteFile(opts.CheckpointPath, b.wrongWidth(t), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), b.nw, b.faults, b.seq, opts)
	if !errors.Is(err, ErrBatchShape) || !strings.Contains(err.Error(), opts.CheckpointPath) {
		t.Fatalf("wrong-width checkpoint: %v, want ErrBatchShape naming the file", err)
	}
}

// FuzzLoadCheckpoint throws arbitrary bytes at the checkpoint path a
// resuming campaign walks: LoadCheckpoint, the fingerprint match, the
// ledger's shape check on every completed batch and, when every batch is
// there, the merge. Its contract: the file is refused with an error, or
// every batch it resumes re-encodes to bytes that decode to the same value
// and encode to the same bytes again (a file written before the result
// lost its clock has non-zero reserved slots, so the first re-encoding may
// differ from the input) and the merge succeeds — never a panic, and never
// a merge refused after every batch was resumed.
func FuzzLoadCheckpoint(f *testing.F) {
	b := newCkBench(f)
	want, err := LoadCheckpoint(bytes.NewReader(b.file))
	if err != nil {
		f.Fatal(err)
	}
	rec := core.Record(b.nw, b.seq, b.opts.Sim)

	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b.file, &doc); err != nil {
		f.Fatal(err)
	}
	mutated := func(key, value string) []byte {
		old := doc[key]
		defer func() { doc[key] = old }()
		doc[key] = json.RawMessage(value)
		out, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	f.Add(b.file)
	f.Add(mutated("partial", `{"1":{"num_faults":2,"step":8,"records":[null,[{"n":99999,"v":7}]]}}`))
	f.Add(mutated("version", "2"))
	f.Add(mutated("done", string(doc["done"][:len(doc["done"])/2])+`"}`)) // batch 0 cut mid-base64
	f.Add(b.wrongWidth(f))
	f.Add([]byte(`{"version":3,"done":{"0":null}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil || ck.matches(want) != nil {
			return
		}
		l := NewLedger(context.Background(), b.nw, b.faults, b.seq, want.BatchSize, 1, 0, nil)
		for i := 0; i < l.Batches(); i++ {
			br := ck.Done[i]
			if br == nil {
				continue
			}
			if err := l.resume(i, br); err != nil {
				if !errors.Is(err, ErrBatchShape) {
					t.Fatalf("batch %d refused without naming ErrBatchShape: %v", i, err)
				}
				l.close()
				return
			}
			enc, err := json.Marshal(br)
			if err != nil {
				t.Fatal(err)
			}
			var again core.BatchResult
			if err := json.Unmarshal(enc, &again); err != nil || !reflect.DeepEqual(br, &again) {
				t.Fatalf("batch %d does not survive its own encoding (err %v)", i, err)
			}
			if enc2, _ := json.Marshal(&again); !bytes.Equal(enc, enc2) {
				t.Fatalf("batch %d re-encodes to different bytes the second time", i)
			}
		}
		if l.outstanding() > 0 {
			l.close()
			return
		}
		if _, err := l.Finish(rec); err != nil {
			t.Fatalf("merge of a fully resumed checkpoint: %v", err)
		}
	})
}

// indexWindowCheckpoint is the checkpoint a build that cut batches as
// index windows of the universe left after completing every batch: the
// fingerprint over the universe in index order, and each window's result.
func indexWindowCheckpoint(tb testing.TB, nw *netlist.Network, faults []fault.Fault, seq *switchsim.Sequence, opts Options) *Checkpoint {
	tb.Helper()
	rec := core.Record(nw, seq, opts.Sim)
	tab := switchsim.NewTables(nw)
	ck := &Checkpoint{
		Version: checkpointVersion, Sequence: seq.Name, NumSettings: seq.NumSettings(),
		NumFaults: len(faults), NumNodes: nw.NumNodes(), NumTransistors: nw.NumTransistors(),
		BatchSize: opts.BatchSize, NumBatches: (len(faults) + opts.BatchSize - 1) / opts.BatchSize,
		FaultsHash: hashFaults(faults), SimHash: hashSimOptions(opts.Sim),
		Done: map[int]*core.BatchResult{},
	}
	for i := 0; i < ck.NumBatches; i++ {
		lo := i * opts.BatchSize
		br, err := core.RunBatch(nil, tab, faults[lo:min(lo+opts.BatchSize, len(faults))], rec, seq, opts.Sim)
		if err != nil {
			tb.Fatal(err)
		}
		ck.Done[i] = br
	}
	return ck
}

// TestCheckpointIndexWindowsRefused: over a shuffled universe, a checkpoint
// whose batches are index windows holds other faults than this build's
// site-ordered windows, so the key differs and the file is refused, naming
// the batch composition — never resumed into the wrong faults.
func TestCheckpointIndexWindowsRefused(t *testing.T) {
	b := newCkBench(t)
	faults := slices.Clone(b.faults)
	slices.Reverse(faults)
	opts := b.opts
	opts.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ck")
	if err := indexWindowCheckpoint(t, b.nw, faults, b.seq, opts).saveFile(opts.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), b.nw, faults, b.seq, opts)
	if err == nil || !strings.Contains(err.Error(), "batch composition") {
		t.Fatalf("index-window checkpoint over a shuffled universe: %v, want a refusal naming the batch composition", err)
	}
}

// TestCheckpointSiteOrderedResumes: over a universe already in site order
// the windows are the index windows, so a checkpoint written by a build
// that cut index windows still resumes — every batch, none re-run — to the
// merge of an uninterrupted run.
func TestCheckpointSiteOrderedResumes(t *testing.T) {
	b := newCkBench(t)
	for p, fi := range batchOrder(b.nw, b.faults, b.opts.BatchSize) {
		if int(fi) != p {
			t.Fatalf("the bench universe is not in site order (position %d holds fault %d)", p, fi)
		}
	}
	opts := b.opts
	opts.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ck")
	if err := indexWindowCheckpoint(t, b.nw, b.faults, b.seq, opts).saveFile(opts.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), b.nw, b.faults, b.seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.BatchesRun != 0 || got.BatchesResumed != got.Batches {
		t.Fatalf("%d run, %d resumed of %d batches, want 0 run", got.BatchesRun, got.BatchesResumed, got.Batches)
	}
	want, err := Run(context.Background(), b.nw, b.faults, b.seq, b.opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.PerFault, want.PerFault) || !reflect.DeepEqual(got.Run, want.Run) {
		t.Fatal("the resumed merge differs from an uninterrupted run's")
	}
}
