package server

import (
	"bytes"
	"io"
	"math/rand"
	"net/http/httptest"
	"testing"
)

// TestReadBodyGrows: a body longer than the read-ahead arrives whole,
// through buffers that grow as its bytes fill them, and one that stops
// short of its Content-Length is an error, not a padded buffer.
func TestReadBodyGrows(t *testing.T) {
	want := make([]byte, 2*bodyReadAhead+123)
	rand.New(rand.NewSource(1)).Read(want)
	for _, c := range []struct {
		name     string
		declared int64
		ok       bool
	}{
		{"honest", int64(len(want)), true},
		{"short", int64(len(want)) + 1, false},
	} {
		r := httptest.NewRequest("PUT", "/recordings/x", io.NopCloser(bytes.NewReader(want)))
		r.ContentLength = c.declared
		got, err := readBody(httptest.NewRecorder(), r, maxRecordingBytes)
		if c.ok && (err != nil || !bytes.Equal(got, want)) {
			t.Errorf("%s: %d bytes (err %v), want the %d sent", c.name, len(got), err, len(want))
		}
		if !c.ok && err == nil {
			t.Errorf("%s: %d bytes declared, %d sent, read without an error", c.name, c.declared, len(want))
		}
	}
}
