package switchsim

import (
	"encoding/binary"
	"fmt"
	"io"
)

// VarintReader reads varints and bytes off the front of Buf. The first
// error sticks and every later read returns zero, so a decoder checks Err
// once per structure instead of once per field. The recording decoder and
// core's batch-result decoder both embed it.
type VarintReader struct {
	Buf []byte
	Err error
}

// Fail records err unless an earlier error already stuck.
func (r *VarintReader) Fail(err error) {
	if r.Err == nil {
		r.Err = err
	}
}

// Uvarint reads one unsigned varint.
func (r *VarintReader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Buf)
	switch {
	case n == 0:
		r.Err = io.ErrUnexpectedEOF
	case n < 0:
		r.Err = fmt.Errorf("varint overflows 64 bits")
	}
	r.Buf = r.Buf[max(n, 0):]
	return v
}

// Byte reads one byte.
func (r *VarintReader) Byte() byte {
	if r.Err != nil {
		return 0
	}
	if len(r.Buf) == 0 {
		r.Err = io.ErrUnexpectedEOF
		return 0
	}
	b := r.Buf[0]
	r.Buf = r.Buf[1:]
	return b
}

// Count reads a length prefix for elements of at least width bytes each,
// refusing one the remaining input could not back: what is allocated for
// it is then bounded by the size of the input.
func (r *VarintReader) Count(width int) int {
	n := r.Uvarint()
	if r.Err == nil && n > uint64(len(r.Buf)/width) {
		r.Err = fmt.Errorf("length %d exceeds the %d bytes left", n, len(r.Buf))
		return 0
	}
	return int(n)
}
