// The serialised form of a BatchResult: a varint column codec in the
// idiom of switchsim's recording format, and the only form the value has.
// A shard's NDJSON result line and a campaign checkpoint both carry it as
// one base64 JSON string.
//
// A batch result is mostly its per-setting table: thirteen small integers
// for every input setting of the sequence, most of them zero. Seven of the
// thirteen, and seven of a pattern's ten, are reserved slots: four held
// wall-clock nanoseconds until the result stopped carrying a clock, one a
// per-setting retirement count nothing read, and the rest the position,
// live-count and work fields that left the batch rows because no reader
// takes them from a batch (Fold rebuilds them from the sequence and the
// recording). Reserved slots are written 0 and skipped on
// read, and pattern names are written empty and skipped on read, so files
// and peers on either side of those changes still understand each other.
// Written column by column as varints, a zero costs one byte and nothing
// is spent on field names; as a JSON object the same table was an order
// of magnitude larger and dominated a shard's round trip.
//
// Layout, every integer a uvarint of its two's-complement bits (so any
// value survives, and the non-negative ones that occur are short):
//
//	magic "FMOSBRES"
//	NumFaults
//	len(PerSetting), then the thirteen per-setting columns
//	len(PerPattern), the ten per-pattern columns, then one
//	    length-prefixed name per pattern (written empty)
//	len(Detected), one byte each
//	len(Detections), then one column per Detection field
//	len(Oscillated), one byte each
//	len(Records), then per fault its record count and the (node, value)
//	    pairs in ascending node order
package core

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

const batchResultMagic = "FMOSBRES"

// column is one integer field of a row type, named once so the encoder
// and the decoder cannot disagree on the field list or its order.
type column[T any] struct {
	get func(*T) int64
	set func(*T, int64)
}

func intCol[T any](field func(*T) *int) column[T] {
	return column[T]{
		get: func(r *T) int64 { return int64(*field(r)) },
		set: func(r *T, v int64) { *field(r) = int(v) },
	}
}

func int64Col[T any](field func(*T) *int64) column[T] {
	return column[T]{
		get: func(r *T) int64 { return *field(r) },
		set: func(r *T, v int64) { *field(r) = v },
	}
}

// reservedCol is a slot no field owns: written 0, read and dropped.
func reservedCol[T any]() column[T] {
	return column[T]{
		get: func(*T) int64 { return 0 },
		set: func(*T, int64) {},
	}
}

// settingCols is the per-setting table's layout. The reserved slots held,
// in order, the pattern and setting index, the live count, the good work,
// two wall-clock spans and a retirement count.
var settingCols = []column[SettingStats]{
	reservedCol[SettingStats](),
	reservedCol[SettingStats](),
	intCol(func(s *SettingStats) *int { return &s.ActiveCircuits }),
	reservedCol[SettingStats](),
	reservedCol[SettingStats](),
	int64Col(func(s *SettingStats) *int64 { return &s.FaultWork }),
	reservedCol[SettingStats](),
	reservedCol[SettingStats](),
	intCol(func(s *SettingStats) *int { return &s.LanesReplayed }),
	intCol(func(s *SettingStats) *int { return &s.ScalarFallbacks }),
	int64Col(func(s *SettingStats) *int64 { return &s.AdoptedVics }),
	int64Col(func(s *SettingStats) *int64 { return &s.SolvedVics }),
	reservedCol[SettingStats](),
}

// patternCols is the per-pattern table's layout. The reserved slots held,
// in order, the pattern index, the setting count, the peak active count,
// the good and the fault work, and two wall-clock spans; the names that
// follow the columns are written empty.
var patternCols = []column[BatchPattern]{
	reservedCol[BatchPattern](),
	reservedCol[BatchPattern](),
	intCol(func(p *BatchPattern) *int { return &p.LiveBefore }),
	intCol(func(p *BatchPattern) *int { return &p.LiveAfter }),
	intCol(func(p *BatchPattern) *int { return &p.Detected }),
	reservedCol[BatchPattern](),
	reservedCol[BatchPattern](),
	reservedCol[BatchPattern](),
	reservedCol[BatchPattern](),
	reservedCol[BatchPattern](),
}

var detectionCols = []column[Detection]{
	intCol(func(d *Detection) *int { return &d.Pattern }),
	intCol(func(d *Detection) *int { return &d.Setting }),
	{
		get: func(d *Detection) int64 { return int64(d.Output) },
		set: func(d *Detection, v int64) { d.Output = netlist.NodeID(v) },
	},
	{
		get: func(d *Detection) int64 { return int64(d.Good) },
		set: func(d *Detection, v int64) { d.Good = logic.Value(v) },
	},
	{
		get: func(d *Detection) int64 { return int64(d.Faulty) },
		set: func(d *Detection, v int64) { d.Faulty = logic.Value(v) },
	},
	{
		get: func(d *Detection) int64 { return int64(b2i(d.Hard)) },
		set: func(d *Detection, v int64) { d.Hard = v != 0 },
	},
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func appendColumns[T any](b []byte, rows []T, cols []column[T]) []byte {
	for _, c := range cols {
		for i := range rows {
			b = binary.AppendUvarint(b, uint64(c.get(&rows[i])))
		}
	}
	return b
}

func appendBools(b []byte, vs []bool) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = append(b, byte(b2i(v)))
	}
	return b
}

func columnsSize[T any](rows []T, cols []column[T]) int {
	n := switchsim.UvarintLen(uint64(len(rows)))
	for _, c := range cols {
		for i := range rows {
			n += switchsim.UvarintLen(uint64(c.get(&rows[i])))
		}
	}
	return n
}

// encodedBound returns the length of the result's serialised form, exact
// but for the records, whose node ids are counted at the longest varint:
// sizing them exactly would walk every record map a second time.
func (br *BatchResult) encodedBound() int {
	n := len(batchResultMagic) + switchsim.UvarintLen(uint64(int64(br.NumFaults)))
	n += columnsSize(br.PerSetting, settingCols) + columnsSize(br.PerPattern, patternCols)
	n += len(br.PerPattern) // an empty name is one zero byte
	n += switchsim.UvarintLen(uint64(len(br.Detected))) + len(br.Detected)
	n += columnsSize(br.Detections, detectionCols)
	n += switchsim.UvarintLen(uint64(len(br.Oscillated))) + len(br.Oscillated)
	n += switchsim.UvarintLen(uint64(len(br.Records)))
	for _, recs := range br.Records {
		n += switchsim.UvarintLen(uint64(len(recs))) + len(recs)*(binary.MaxVarintLen64+1)
	}
	return n
}

// AppendBinary appends the result's serialised form to b. It is lossless:
// UnmarshalBinary rebuilds an equal value (empty slices and empty record
// maps come back nil). b grows at most once, to encodedBound.
func (br BatchResult) AppendBinary(b []byte) ([]byte, error) {
	if need := br.encodedBound(); cap(b)-len(b) < need {
		b = append(make([]byte, 0, len(b)+need), b...)
	}
	b = append(b, batchResultMagic...)
	b = binary.AppendUvarint(b, uint64(int64(br.NumFaults)))

	b = binary.AppendUvarint(b, uint64(len(br.PerSetting)))
	b = appendColumns(b, br.PerSetting, settingCols)

	b = binary.AppendUvarint(b, uint64(len(br.PerPattern)))
	b = appendColumns(b, br.PerPattern, patternCols)
	for range br.PerPattern {
		b = append(b, 0) // the empty name
	}

	b = appendBools(b, br.Detected)
	b = binary.AppendUvarint(b, uint64(len(br.Detections)))
	b = appendColumns(b, br.Detections, detectionCols)
	b = appendBools(b, br.Oscillated)

	b = binary.AppendUvarint(b, uint64(len(br.Records)))
	var nodes []netlist.NodeID
	for _, recs := range br.Records {
		nodes = nodes[:0]
		for n := range recs {
			nodes = append(nodes, n)
		}
		slices.Sort(nodes)
		b = binary.AppendUvarint(b, uint64(len(nodes)))
		for _, n := range nodes {
			b = binary.AppendUvarint(b, uint64(int64(n)))
			b = append(b, byte(recs[n]))
		}
	}
	return b, nil
}

// UnmarshalBinary replaces br with the result serialised in data.
// Malformed input is an error, never a panic, and no length prefix is
// trusted beyond the bytes that could back it. The row tables br holds
// are decoded into when they are long enough, so a caller that hands in
// the tables of a result it no longer needs (a coordinator slot, with
// what campaign's Ledger released) fills them instead of allocating; the
// per-fault columns and record maps are always new, and the value is the
// one a decode into a zero BatchResult gives. A failed decode leaves br's
// fields as they were, but the contents of its tables undefined. data is
// not retained.
func (br *BatchResult) UnmarshalBinary(data []byte) error {
	if len(data) < len(batchResultMagic) || string(data[:len(batchResultMagic)]) != batchResultMagic {
		return fmt.Errorf("core: not a batch result (bad magic)")
	}
	d := &resultDecoder{switchsim.VarintReader{Buf: data[len(batchResultMagic):]}}
	out := BatchResult{NumFaults: int(int64(d.Uvarint()))}

	out.PerSetting = decodeColumns(d, d.Count(len(settingCols)), settingCols, br.PerSetting)

	out.PerPattern = decodeColumns(d, d.Count(len(patternCols)+1), patternCols, br.PerPattern)
	for range out.PerPattern {
		d.bytes(d.Count(1)) // a name: empty, or an older writer's, dropped
	}

	out.Detected = d.bools()
	out.Detections = decodeColumns(d, d.Count(len(detectionCols)), detectionCols, nil)
	for i := range out.Detections {
		if det := &out.Detections[i]; det.Good > logic.X || det.Faulty > logic.X {
			d.Fail(fmt.Errorf("detection %d: logic value out of range", i))
		}
	}
	out.Oscillated = d.bools()
	if len(out.Detections) != len(out.Detected) || len(out.Oscillated) != len(out.Detected) {
		// campaign.Merge walks the three in step.
		d.Fail(fmt.Errorf("per-fault columns of %d, %d and %d faults",
			len(out.Detected), len(out.Detections), len(out.Oscillated)))
	}

	if n := d.Count(1); n > 0 {
		out.Records = make([]map[netlist.NodeID]logic.Value, n)
	}
	for i := range out.Records {
		n := d.Count(2)
		if n == 0 {
			continue
		}
		recs := make(map[netlist.NodeID]logic.Value, n)
		for j := 0; j < n && d.Err == nil; j++ {
			node := netlist.NodeID(d.Uvarint())
			v := logic.Value(d.Byte())
			if v > logic.X {
				d.Fail(fmt.Errorf("fault %d: record value %d out of range", i, v))
			}
			recs[node] = v
		}
		if len(recs) != n {
			d.Fail(fmt.Errorf("fault %d: duplicate record node", i))
		}
		out.Records[i] = recs
	}

	if d.Err == nil && len(d.Buf) != 0 {
		d.Fail(fmt.Errorf("%d trailing bytes", len(d.Buf)))
	}
	if d.Err != nil {
		return fmt.Errorf("core: decoding batch result: %w", d.Err)
	}
	*br = out
	return nil
}

// MarshalJSON writes the binary form as one base64 string.
func (br BatchResult) MarshalJSON() ([]byte, error) {
	bin, err := br.AppendBinary(nil)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, base64.StdEncoding.EncodedLen(len(bin))+2)
	out = append(out, '"')
	out = base64.StdEncoding.AppendEncode(out, bin)
	return append(out, '"'), nil
}

// UnmarshalJSON reads the base64 string MarshalJSON writes, into br's row
// tables as UnmarshalBinary does; null leaves br as it is.
func (br *BatchResult) UnmarshalJSON(data []byte) error {
	_, err := br.DecodeJSON(data, nil)
	return err
}

// DecodeJSON is UnmarshalJSON decoding the base64 string into scratch,
// grown when it is too short, instead of into a new buffer, and returning
// scratch for the caller's next decode. The string is read once: a
// string with no escape in it, which is every string MarshalJSON writes,
// is decoded where it lies.
func (br *BatchResult) DecodeJSON(data, scratch []byte) ([]byte, error) {
	if string(data) == "null" {
		return scratch, nil
	}
	s := data
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' || bytes.IndexByte(s, '\\') >= 0 {
		var str string // not a string, or one a JSON writer escaped
		if err := json.Unmarshal(data, &str); err != nil {
			return scratch, fmt.Errorf("core: batch result is not a base64 string: %w", err)
		}
		s = []byte(str)
	} else {
		s = s[1 : len(s)-1]
	}
	if n := base64.StdEncoding.DecodedLen(len(s)); cap(scratch) < n {
		scratch = make([]byte, n)
	}
	n, err := base64.StdEncoding.Decode(scratch[:cap(scratch)], s)
	if err != nil {
		return scratch, fmt.Errorf("core: batch result is not a base64 string: %w", err)
	}
	return scratch[:0], br.UnmarshalBinary(scratch[:n])
}

// resultDecoder is the sticky-error reader the recording codec uses, plus
// the byte strings and bool columns of a batch result.
type resultDecoder struct {
	switchsim.VarintReader
}

func (d *resultDecoder) bytes(n int) []byte {
	if d.Err != nil {
		return nil
	}
	b := d.Buf[:n]
	d.Buf = d.Buf[n:]
	return b
}

func (d *resultDecoder) bools() []bool {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		b := d.Byte()
		if b > 1 {
			d.Fail(fmt.Errorf("bool byte %d", b))
		}
		out[i] = b == 1
	}
	return out
}

// decodeColumns reads a table of n rows, into reuse's array when it holds
// n rows.
func decodeColumns[T any](d *resultDecoder, n int, cols []column[T], reuse []T) []T {
	if n == 0 {
		return nil
	}
	rows := zeroed(reuse, n)
	for _, c := range cols {
		for i := range rows {
			c.set(&rows[i], int64(d.Uvarint()))
		}
	}
	return rows
}
