package core

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// codecSeeds returns real RAM64 batch results that between them exercise
// every part of the serialised form: a shard of the stuck-at universe with
// fault dropping (detections, a long per-setting table), a never-dropping
// run under a round limit of two (final divergence records on most faults,
// oscillation flags on nearly all), and the whole universe in one batch.
func codecSeeds(tb testing.TB) []*BatchResult {
	tb.Helper()
	m := ram.RAM64()
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:48] // keeps the fuzz corpus entries small
	tab := switchsim.NewTables(m.Net)
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	obs := []netlist.NodeID{m.DataOut}

	shardOpts := Options{Observe: obs, Workers: 1}
	shard, err := RunBatch(nil, tab, faults[16:80], Record(m.Net, seq, shardOpts), seq, shardOpts)
	if err != nil {
		tb.Fatal(err)
	}

	oscOpts := Options{Observe: obs, Workers: 1, MaxRounds: 2, Drop: NeverDrop}
	osc, err := RunBatch(nil, tab, faults[:64], Record(m.Net, seq, oscOpts), seq, oscOpts)
	if err != nil {
		tb.Fatal(err)
	}

	whole, err := RunBatch(nil, tab, faults, Record(m.Net, seq, shardOpts), seq, shardOpts)
	if err != nil {
		tb.Fatal(err)
	}

	seeds := []*BatchResult{shard, osc, whole}
	var sawDetected, sawOsc, sawRecords bool
	for _, br := range seeds {
		for fi := 0; fi < br.NumFaults; fi++ {
			sawDetected = sawDetected || br.Detected[fi]
			sawOsc = sawOsc || br.Oscillated[fi]
			sawRecords = sawRecords || br.Records[fi] != nil
		}
	}
	if !sawDetected || !sawOsc || !sawRecords {
		tb.Fatalf("seeds miss a case: detected %v, oscillated %v, records %v", sawDetected, sawOsc, sawRecords)
	}
	return seeds
}

func encodeResult(tb testing.TB, br *BatchResult) []byte {
	tb.Helper()
	bin, err := br.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return bin
}

// TestBatchResultRoundTrip: the binary form, and the JSON string that
// wraps it, rebuild a deeply equal value; damaged input is an error. The
// binary form is written into one buffer, sized before the first byte.
func TestBatchResultRoundTrip(t *testing.T) {
	for i, want := range codecSeeds(t) {
		bin := encodeResult(t, want)
		// The bound is the length but for the records' node ids, each
		// counted at the longest varint.
		slack := 0
		for _, recs := range want.Records {
			for n := range recs {
				slack += binary.MaxVarintLen64 - switchsim.UvarintLen(uint64(n))
			}
		}
		if bound := want.encodedBound(); cap(bin) != bound || len(bin)+slack != bound {
			t.Errorf("seed %d: %d bytes (%d of record slack) in a buffer of %d, sized to %d", i, len(bin), slack, cap(bin), bound)
		}
		var got BatchResult
		if err := got.UnmarshalBinary(bin); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("seed %d: binary round trip differs", i)
		}

		// As a checkpoint or a result line carries it: a pointer field
		// inside a JSON document.
		type envelope struct {
			Batch *BatchResult `json:"batch,omitempty"`
		}
		js, err := json.Marshal(envelope{Batch: want})
		if err != nil {
			t.Fatal(err)
		}
		if len(js) > 2*len(bin) {
			t.Errorf("seed %d: JSON form is %d bytes around %d of payload", i, len(js), len(bin))
		}
		var env envelope
		if err := json.Unmarshal(js, &env); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !reflect.DeepEqual(env.Batch, want) {
			t.Fatalf("seed %d: JSON round trip differs", i)
		}

		for _, bad := range [][]byte{
			nil,
			bin[:len(bin)/2],
			bin[:len(bin)-1],
			append(append([]byte(nil), bin...), 0),
			append([]byte("FMOSBRE?"), bin[len(batchResultMagic):]...),
		} {
			if err := new(BatchResult).UnmarshalBinary(bad); err == nil {
				t.Errorf("seed %d: damaged input of %d bytes decoded", i, len(bad))
			}
		}
		if err := json.Unmarshal([]byte(`{"batch":{"num_faults":1}}`), &env); err == nil {
			t.Error("the JSON object form decoded; it must not exist any more")
		}
	}
}

// TestBatchResultCodecCoversEveryField fills every field of the row types
// with a distinct value, so a field added to one of them without a column
// fails here rather than vanishing on the wire.
func TestBatchResultCodecCoversEveryField(t *testing.T) {
	next := int64(1)
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			next += 3
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64, reflect.Int32:
				f.SetInt(next)
			case reflect.Uint8:
				f.SetUint(uint64(next % 3))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.String:
				f.SetString("p" + string(rune('a'+next%26)))
			default:
				t.Fatalf("%s.%s: kind %s has no column", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	want := &BatchResult{
		NumFaults:  2,
		PerSetting: make([]SettingStats, 3),
		PerPattern: make([]BatchPattern, 2),
		Detected:   []bool{true, false},
		Detections: make([]Detection, 2),
		Oscillated: []bool{false, true},
		Records:    []map[netlist.NodeID]logic.Value{nil, {7: logic.X, 3: logic.Hi}},
	}
	for i := range want.PerSetting {
		fill(reflect.ValueOf(&want.PerSetting[i]).Elem())
	}
	for i := range want.PerPattern {
		fill(reflect.ValueOf(&want.PerPattern[i]).Elem())
	}
	for i := range want.Detections {
		fill(reflect.ValueOf(&want.Detections[i]).Elem())
	}
	// Negative values survive too (a Detection's Setting is -1 when the
	// observation preceded the pattern's first setting).
	want.Detections[1].Setting = -1
	want.PerSetting[0].FaultWork = -5

	var got BatchResult
	if err := got.UnmarshalBinary(encodeResult(t, want)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip differs:\ngot  %+v\nwant %+v", &got, want)
	}
}

// TestBatchResultReservedSlots: the columns no row field owns any more are
// still on the wire — written 0, skipped on read — and so is the name of
// every pattern, written empty and skipped on read, so a payload written
// before those fields left the rows (a checkpoint, an older worker's
// result line) decodes to the value this build would have computed. The
// slots held wall-clock nanoseconds until the result lost its clock, a
// retirement count until nothing read it, and the position, live-count
// and work fields until the batch rows kept only what campaign.Merge and
// the benchmark harness read.
func TestBatchResultReservedSlots(t *testing.T) {
	want := &BatchResult{
		NumFaults: 1,
		PerSetting: []SettingStats{{ActiveCircuits: 3, FaultWork: 6, LanesReplayed: 7, ScalarFallbacks: 8,
			AdoptedVics: 9, SolvedVics: 10}},
		PerPattern: []BatchPattern{{LiveBefore: 3, LiveAfter: 4, Detected: 5}},
		Detected:   []bool{false},
		Detections: make([]Detection, 1),
		Oscillated: []bool{false},
	}
	bin := encodeResult(t, want)
	// One row of one-byte values per table: a column is a byte.
	settings := len(batchResultMagic) + 2 // NumFaults, len(PerSetting)
	patterns := settings + len(settingCols) + 1
	name := patterns + len(patternCols)
	slots := []struct {
		field string
		at    int
	}{
		{"SettingStats.Pattern", settings + 0},
		{"SettingStats.Setting", settings + 1},
		{"SettingStats.LiveFaults", settings + 3},
		{"SettingStats.GoodWork", settings + 4},
		{"setting wall-clock 1", settings + 6},
		{"setting wall-clock 2", settings + 7},
		{"setting retirements", settings + 12},
		{"PatternStats.Pattern", patterns + 0},
		{"PatternStats.Settings", patterns + 1},
		{"PatternStats.MaxActive", patterns + 5},
		{"PatternStats.GoodWork", patterns + 6},
		{"PatternStats.FaultWork", patterns + 7},
		{"pattern wall-clock 1", patterns + 8},
		{"pattern wall-clock 2", patterns + 9},
	}
	old := append([]byte(nil), bin...)
	for _, s := range slots {
		if bin[s.at] != 0 {
			t.Fatalf("reserved slot %s at byte %d holds %d, want 0", s.field, s.at, bin[s.at])
		}
		old[s.at] = 0x7f
	}
	if bin[name] != 0 {
		t.Fatalf("the pattern name at byte %d has length %d, want empty", name, bin[name])
	}
	// An older writer named the pattern.
	old = slices.Concat(old[:name], []byte{2, 'p', '0'}, old[name+1:])
	var got BatchResult
	if err := got.UnmarshalBinary(old); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("a payload with non-zero reserved slots and a named pattern decodes to\n%+v, want\n%+v", &got, want)
	}
}

// wideRowGolden is a batch result an earlier build wrote, before the batch
// rows lost their position, live-count, work and name fields: every one of
// those columns holds non-zero values in it and every pattern is named
// (testdata/README.md says how it was made).
const wideRowGolden = "testdata/batchresult-wide-rows.fmosbres"

// TestBatchResultWideRowGolden: the earlier build's payload decodes to the
// slim rows this build computes for the same batch, dropping the columns
// that are reserved now and the pattern names — which the golden must
// actually fill for the test to show that.
func TestBatchResultWideRowGolden(t *testing.T) {
	bin, err := os.ReadFile(wideRowGolden)
	if err != nil {
		t.Fatal(err)
	}
	var got BatchResult
	if err := got.UnmarshalBinary(bin); err != nil {
		t.Fatal(err)
	}
	m := ram.RAM64()
	seq := march.Sequence1(m)
	seq.Patterns = seq.Patterns[:48]
	faults := fault.NodeStuckFaults(m.Net, fault.Options{})
	opts := Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
	want, err := RunBatch(nil, switchsim.NewTables(m.Net), faults[16:80], Record(m.Net, seq, opts), seq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatal("the earlier build's payload decodes to another result than this build computes")
	}

	// The premise: read raw, every column reserved now holds a non-zero
	// value (the wall-clock and retirement slots were 0 already), and
	// every pattern has a name.
	d := &resultDecoder{switchsim.VarintReader{Buf: bin[len(batchResultMagic):]}}
	d.Uvarint() // NumFaults
	settings := rawNonZeroColumns(d, settingCols)
	patterns := rawNonZeroColumns(d, patternCols)
	for _, ci := range []int{0, 1, 3, 4} {
		if !slices.Contains(settings, ci) {
			t.Errorf("per-setting column %d is all zero in the golden", ci)
		}
	}
	for _, ci := range []int{0, 1, 5, 6, 7} {
		if !slices.Contains(patterns, ci) {
			t.Errorf("per-pattern column %d is all zero in the golden", ci)
		}
	}
	for pi := range got.PerPattern {
		if len(d.bytes(d.Count(1))) == 0 {
			t.Errorf("pattern %d has no name in the golden", pi)
		}
	}
	if d.Err != nil {
		t.Fatal(d.Err)
	}
}

// rawNonZeroColumns reads a table of cols from d, its row count first, and
// returns the indices of the columns holding a non-zero value.
func rawNonZeroColumns[T any](d *resultDecoder, cols []column[T]) []int {
	n := d.Count(len(cols))
	var nonZero []int
	for ci := range cols {
		hit := false
		for range n {
			hit = d.Uvarint() != 0 || hit
		}
		if hit {
			nonZero = append(nonZero, ci)
		}
	}
	return nonZero
}

// TestBatchRowSizes pins the batch rows' sizes: a campaign holds one
// SettingStats per setting and one BatchPattern per pattern of every
// batch, and those tables are most of what a batch allocates.
func TestBatchRowSizes(t *testing.T) {
	if got := unsafe.Sizeof(SettingStats{}); got != 48 {
		t.Errorf("SettingStats is %d bytes, want 48: a new batch-row field needs a named reader (Merge, a CLI, the harness or the server; ROADMAP item 3)", got)
	}
	if got := unsafe.Sizeof(BatchPattern{}); got != 24 {
		t.Errorf("BatchPattern is %d bytes, want 24: a new batch-row field needs a named reader (Merge, a CLI, the harness or the server; ROADMAP item 3)", got)
	}
}

// FuzzDecodeBatchResult throws arbitrary bytes at the batch-result
// decoder. Its contract: malformed input (bad magic, truncated varints,
// length prefixes the input cannot back, out-of-range values, per-fault
// columns of different lengths, trailing bytes) returns an error and never
// panics; anything that does decode re-encodes and re-decodes to the
// identical value. The seeds include an earlier build's payload, whose
// reserved columns and pattern names are filled.
func FuzzDecodeBatchResult(f *testing.F) {
	for _, br := range codecSeeds(f) {
		bin := encodeResult(f, br)
		f.Add(bin)
		f.Add(bin[:len(bin)/2])
		f.Add(bin[:len(bin)-1])
	}
	old, err := os.ReadFile(wideRowGolden)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add([]byte(batchResultMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var br BatchResult
		if err := br.UnmarshalBinary(data); err != nil {
			return
		}
		if len(br.Detections) != len(br.Detected) || len(br.Oscillated) != len(br.Detected) {
			t.Fatalf("decoded per-fault columns of %d, %d and %d faults",
				len(br.Detected), len(br.Detections), len(br.Oscillated))
		}
		var again BatchResult
		if err := again.UnmarshalBinary(encodeResult(t, &br)); err != nil {
			t.Fatalf("re-decoding a re-encoded result: %v", err)
		}
		if !reflect.DeepEqual(&br, &again) {
			t.Fatal("decode ∘ encode is not idempotent on a decoded result")
		}
	})
}
