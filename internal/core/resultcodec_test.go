package core

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

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
		PerPattern: make([]PatternStats, 2),
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

// TestBatchResultReservedSlots: the two per-setting and two per-pattern
// columns that carried wall-clock nanoseconds until the result lost its
// clock, and the per-setting column that carried a retirement count until
// nothing read it, are still on the wire — written 0, skipped on read — so
// a payload written before those changes (a checkpoint, an older worker's
// result line) decodes to the value this build would have computed.
func TestBatchResultReservedSlots(t *testing.T) {
	want := &BatchResult{
		NumFaults:  1,
		PerSetting: []SettingStats{{Pattern: 1, Setting: 2, ActiveCircuits: 3, LiveFaults: 4, GoodWork: 5, FaultWork: 6, LanesReplayed: 7}},
		PerPattern: []PatternStats{{Pattern: 1, Settings: 2, LiveBefore: 3, LiveAfter: 4, Detected: 5, MaxActive: 6, GoodWork: 7, FaultWork: 8, Name: "p"}},
		Detected:   []bool{false},
		Detections: make([]Detection, 1),
		Oscillated: []bool{false},
	}
	bin := encodeResult(t, want)
	// One row of one-byte values per table: a column is a byte.
	settings := len(batchResultMagic) + 2 // NumFaults, len(PerSetting)
	patterns := settings + len(settingCols) + 1
	slots := []int{settings + 6, settings + 7, settings + 12, patterns + 8, patterns + 9}
	old := append([]byte(nil), bin...)
	for _, at := range slots {
		if bin[at] != 0 {
			t.Fatalf("reserved slot at byte %d holds %d, want 0", at, bin[at])
		}
		old[at] = 0x7f
	}
	var got BatchResult
	if err := got.UnmarshalBinary(old); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("a payload with non-zero reserved slots decodes to\n%+v, want\n%+v", &got, want)
	}
}

// FuzzDecodeBatchResult throws arbitrary bytes at the batch-result
// decoder. Its contract: malformed input (bad magic, truncated varints,
// length prefixes the input cannot back, out-of-range values, per-fault
// columns of different lengths, trailing bytes) returns an error and never
// panics; anything that does decode re-encodes and re-decodes to the
// identical value.
func FuzzDecodeBatchResult(f *testing.F) {
	for _, br := range codecSeeds(f) {
		bin := encodeResult(f, br)
		f.Add(bin)
		f.Add(bin[:len(bin)/2])
		f.Add(bin[:len(bin)-1])
	}
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
