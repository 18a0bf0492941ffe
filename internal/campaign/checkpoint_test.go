package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
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
// log one run of it left behind. It is small so that the log is: the
// fuzzer minimizes every input it keeps, byte by byte, and
// TestCheckpointTornAtEveryOffset resumes from every prefix of it.
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
	b.opts.Recording = core.Record(b.nw, b.seq, b.opts.Sim)
	b.file = b.run(tb, b.opts)
	return b
}

// run executes the campaign against a fresh checkpoint path and returns
// the log it leaves.
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

// logLines splits a log after every newline: the header line first, then
// one line per batch, each with its newline (a torn last line without).
func logLines(file []byte) [][]byte {
	lines := bytes.SplitAfter(file, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// payloadLine renders the line that logs payload as batch i, under a
// valid CRC.
func payloadLine(tb testing.TB, i int, payload []byte) []byte {
	tb.Helper()
	line, err := json.Marshal(ckLine{Batch: i, CRC: crc32.Update(uint32(i), crc32.IEEETable, payload), Result: payload})
	if err != nil {
		tb.Fatal(err)
	}
	return append(line, '\n')
}

// logLine renders batch i's line as the log writes it.
func logLine(tb testing.TB, i int, br *core.BatchResult) []byte {
	tb.Helper()
	payload, err := br.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return payloadLine(tb, i, payload)
}

// relabel is a batch line re-keyed to batch i under a valid CRC.
func relabel(tb testing.TB, line []byte, i int) []byte {
	tb.Helper()
	var ln ckLine
	if err := json.Unmarshal(line, &ln); err != nil {
		tb.Fatal(err)
	}
	return payloadLine(tb, i, ln.Result)
}

// header decodes the log's first line.
func (b *ckBench) header(tb testing.TB) *ckHeader {
	tb.Helper()
	var h ckHeader
	if err := json.Unmarshal(logLines(b.file)[0], &h); err != nil {
		tb.Fatal(err)
	}
	return &h
}

// wrongWidth is the log with batch 1's line carrying a result three faults
// wide, under a valid CRC: a valid result, of some other batch.
func (b *ckBench) wrongWidth(tb testing.TB) []byte {
	tb.Helper()
	br, err := core.RunBatch(nil, switchsim.NewTables(b.nw), b.faults[:3], b.opts.Recording, b.seq, b.opts.Sim)
	if err != nil {
		tb.Fatal(err)
	}
	lines := logLines(b.file)
	lines[2] = logLine(tb, 1, br)
	return bytes.Join(lines, nil)
}

// resumeFrom writes file as the checkpoint, runs the campaign, and returns
// the result and the log it leaves.
func (b *ckBench) resumeFrom(t *testing.T, file []byte) (*Result, []byte, error) {
	t.Helper()
	opts := b.opts
	opts.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ck")
	if err := os.WriteFile(opts.CheckpointPath, file, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), b.nw, b.faults, b.seq, opts)
	after, rerr := os.ReadFile(opts.CheckpointPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return res, after, err
}

// sameMerge reports whether two campaign results merged the same outcome.
func sameMerge(a, b *Result) bool {
	return reflect.DeepEqual(a.Run, b.Run) && reflect.DeepEqual(a.PerFault, b.PerFault)
}

// TestCheckpointBytesStable: the result carries no clock, so two runs of
// one campaign on one shard leave byte-identical logs. On two shards the
// batches complete in either order, and the logs hold the same lines.
func TestCheckpointBytesStable(t *testing.T) {
	b := newCkBench(t)
	if again := b.run(t, b.opts); !bytes.Equal(again, b.file) {
		t.Fatalf("two runs of one campaign left different checkpoints (%d and %d bytes)", len(b.file), len(again))
	}
	two := b.opts
	two.Shards = 2
	sorted := func(file []byte) [][]byte {
		lines := logLines(file)
		slices.SortFunc(lines, bytes.Compare)
		return lines
	}
	if got, want := sorted(b.run(t, two)), sorted(b.file); !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("a two-shard run logged other lines than a one-shard run (%d and %d)", len(got), len(want))
	}
}

// TestCheckpointTornAtEveryOffset cuts the log at every byte offset, as a
// crash mid-write could, and resumes. A cut inside the header line is
// refused: the file names no campaign. Any other cut resumes every batch
// whose line is whole, re-runs the rest — so BatchesRun counts the lines
// the cut did not leave intact — and merges to the uninterrupted result.
// The re-run batches are logged after the kept ones, in index order, so
// the log ends as the uninterrupted run left it.
func TestCheckpointTornAtEveryOffset(t *testing.T) {
	b := newCkBench(t)
	want, _, err := b.resumeFrom(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := logLines(b.file)
	for cut := 0; cut <= len(b.file); cut++ {
		res, after, err := b.resumeFrom(t, b.file[:cut])
		if cut > 0 && cut < len(lines[0]) {
			if err == nil || !strings.Contains(err.Error(), "header") {
				t.Fatalf("cut at %d, inside the header line: %v, want a refusal naming the header", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		intact, end := 0, len(lines[0])
		for _, line := range lines[1:] {
			if end += len(line); end <= cut {
				intact++
			}
		}
		if res.BatchesResumed != intact || res.BatchesRun != res.Batches-intact {
			t.Fatalf("cut at %d: %d resumed and %d run of %d batches, want %d resumed", cut, res.BatchesResumed, res.BatchesRun, res.Batches, intact)
		}
		if !sameMerge(res, want) {
			t.Fatalf("cut at %d: the resumed merge differs from an uninterrupted run's", cut)
		}
		if !bytes.Equal(after, b.file) {
			t.Fatalf("cut at %d: the resumed log differs from the uninterrupted one", cut)
		}
	}
}

// TestCheckpointCorruptLineReruns: a middle line whose CRC no longer
// matches — its crc field changed, its batch index (to one of the same
// width, still to run), or one character of its payload — is
// where the log ends: the batch before it resumes, it and every batch
// after it re-run, and the merge is the uninterrupted one.
func TestCheckpointCorruptLineReruns(t *testing.T) {
	b := newCkBench(t)
	want, _, err := b.resumeFrom(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func([]byte) []byte
	}{
		{"crc", func(line []byte) []byte {
			var ln ckLine
			if err := json.Unmarshal(line, &ln); err != nil {
				t.Fatal(err)
			}
			ln.CRC ^= 1
			out, err := json.Marshal(ln)
			if err != nil {
				t.Fatal(err)
			}
			return append(out, '\n')
		}},
		{"index", func(line []byte) []byte {
			return bytes.Replace(line, []byte(`"batch":1,`), []byte(`"batch":2,`), 1)
		}},
		{"payload", func(line []byte) []byte {
			i := bytes.Index(line, []byte(`"result":"`)) + len(`"result":"`) + 40
			line = slices.Clone(line)
			line[i] ^= 'A' ^ 'B'
			if line[i] == '\n' || line[i] == '"' {
				t.Fatalf("flipped into a delimiter")
			}
			return line
		}},
	} {
		lines := logLines(b.file)
		lines[2] = tc.edit(lines[2])
		res, after, err := b.resumeFrom(t, bytes.Join(lines, nil))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.BatchesResumed != 1 || res.BatchesRun != 2 {
			t.Fatalf("%s: %d resumed and %d run, want 1 and 2", tc.name, res.BatchesResumed, res.BatchesRun)
		}
		if !sameMerge(res, want) || !bytes.Equal(after, b.file) {
			t.Fatalf("%s: the resumed merge or log differs from the uninterrupted run's", tc.name)
		}
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

// TestCheckpointWrongWidthRefused: a log whose fingerprint matches but
// whose batch 1 line, under a valid CRC, is three faults wide is refused
// by name, not merged with the rest of the window reading as undetected.
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

// TestCheckpointLineForNoBatchRefused: a line that passes its CRC but
// names a batch that was already resumed, or one outside the campaign, is
// refused by name — not merged twice, and not indexed out of range.
func TestCheckpointLineForNoBatchRefused(t *testing.T) {
	b := newCkBench(t)
	lines := logLines(b.file)
	for name, extra := range map[string][]byte{
		"duplicate":    lines[1],
		"out of range": relabel(t, lines[3], 3),
		"negative":     relabel(t, lines[3], -1),
	} {
		_, _, err := b.resumeFrom(t, append(slices.Clone(b.file), extra...))
		if !errors.Is(err, ErrBatchShape) {
			t.Errorf("%s batch line: %v, want ErrBatchShape", name, err)
		}
	}
}

// FuzzLoadCheckpoint throws arbitrary bytes at the path a resuming
// campaign walks: the header match, the line scan with its CRC and
// decode, the ledger's shape check on every batch resumed and, when every
// batch is there, the merge. Its contract: the file is refused with an
// error — ErrBatchShape when the header is this campaign's — or the batches
// it resumes survive their own encoding, the kept prefix reads back whole
// with the same batches, and the merge succeeds: never a panic, and never
// a merge refused after every batch was resumed.
func FuzzLoadCheckpoint(f *testing.F) {
	b := newCkBench(f)
	want := b.header(f)
	lines := logLines(b.file)
	join := func(ls ...[]byte) []byte { return bytes.Join(ls, nil) }

	crcFlipped := slices.Clone(lines[2])
	crcFlipped[bytes.Index(crcFlipped, []byte(`"crc":`))+len(`"crc":`)] ^= 1 // one digit to its neighbour
	var v3 map[string]any
	if err := json.Unmarshal(lines[0], &v3); err != nil {
		f.Fatal(err)
	}
	v3["version"], v3["done"] = 3, map[string]any{}
	v3doc, err := json.Marshal(v3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b.file)
	f.Add(b.file[:len(b.file)-7])
	f.Add(join(lines[0], lines[1], crcFlipped, lines[3]))
	f.Add(append(v3doc, '\n'))
	f.Add(join(b.file, lines[1]))
	f.Add(join(b.file, relabel(f, lines[3], 3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLedger(context.Background(), b.nw, b.faults, b.seq, want.BatchSize, 1, 0, nil)
		defer l.close()
		keep, err := resumeLog(data, want, l)
		if err != nil {
			if bytes.HasPrefix(data, lines[0]) && !errors.Is(err, ErrBatchShape) {
				t.Fatalf("a log with this campaign's header refused without naming ErrBatchShape: %v", err)
			}
			return
		}
		if keep < len(lines[0]) || keep > len(data) {
			t.Fatalf("kept %d bytes of %d", keep, len(data))
		}
		again := NewLedger(context.Background(), b.nw, b.faults, b.seq, want.BatchSize, 1, 0, nil)
		defer again.close()
		if k, err := resumeLog(data[:keep], want, again); err != nil || k != keep {
			t.Fatalf("the kept prefix of %d bytes reads back as %d (err %v)", keep, k, err)
		}
		resumed := 0
		for i := 0; i < l.Batches(); i++ {
			br := l.Batch(i)
			if (br == nil) != (again.Batch(i) == nil) {
				t.Fatalf("batch %d resumed from the log but not from its kept prefix, or the other way", i)
			}
			if br == nil {
				continue
			}
			resumed++
			enc, err := br.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			var dec core.BatchResult
			if err := dec.UnmarshalBinary(enc); err != nil || !reflect.DeepEqual(br, &dec) {
				t.Fatalf("batch %d does not survive its own encoding (err %v)", i, err)
			}
		}
		if resumed != l.resumed {
			t.Fatalf("%d batches resumed, %d counted", resumed, l.resumed)
		}
		if l.outstanding() > 0 {
			return
		}
		if _, err := l.Finish(b.opts.Recording.SettingWork); err != nil {
			t.Fatalf("merge of a fully resumed checkpoint: %v", err)
		}
	})
}

// indexWindowCheckpoint is the log a build that cut batches as index
// windows of the universe left after completing every batch: the
// fingerprint over the universe in index order, and each window's result.
func indexWindowCheckpoint(tb testing.TB, nw *netlist.Network, faults []fault.Fault, seq *switchsim.Sequence, opts Options) []byte {
	tb.Helper()
	rec := core.Record(nw, seq, opts.Sim)
	tab := switchsim.NewTables(nw)
	n := (len(faults) + opts.BatchSize - 1) / opts.BatchSize
	file, err := json.Marshal(&ckHeader{
		Version: checkpointVersion, Sequence: seq.Name, NumSettings: seq.NumSettings(),
		NumFaults: len(faults), NumNodes: nw.NumNodes(), NumTransistors: nw.NumTransistors(),
		BatchSize: opts.BatchSize, NumBatches: n,
		FaultsHash: hashFaults(faults), SimHash: hashSimOptions(opts.Sim),
	})
	if err != nil {
		tb.Fatal(err)
	}
	file = append(file, '\n')
	for i := 0; i < n; i++ {
		lo := i * opts.BatchSize
		br, err := core.RunBatch(nil, tab, faults[lo:min(lo+opts.BatchSize, len(faults))], rec, seq, opts.Sim)
		if err != nil {
			tb.Fatal(err)
		}
		file = append(file, logLine(tb, i, br)...)
	}
	return file
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
	if err := os.WriteFile(opts.CheckpointPath, indexWindowCheckpoint(t, b.nw, faults, b.seq, opts), 0o644); err != nil {
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
	got, _, err := b.resumeFrom(t, indexWindowCheckpoint(t, b.nw, b.faults, b.seq, b.opts))
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
	if !sameMerge(got, want) {
		t.Fatal("the resumed merge differs from an uninterrupted run's")
	}
}
