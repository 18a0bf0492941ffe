package distrib

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"
)

// TestEncodedChunks: bytes written to an encoded in pieces of any size,
// across chunk boundaries, read back whole from every body, in fixed-size
// chunks and hashed as written.
func TestEncodedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := make([]byte, 3*encodedChunk+123)
	rng.Read(want)
	e := &encoded{hash: sha256.New()}
	for rest := want; len(rest) > 0; {
		n := min(len(rest), []int{1, 7, 4096, 100000}[rng.Intn(4)])
		e.Write(rest[:n])
		rest = rest[n:]
	}
	if e.size != len(want) || len(e.chunks) != 4 {
		t.Fatalf("%d bytes in %d chunks, want %d in 4", e.size, len(e.chunks), len(want))
	}
	for _, c := range e.chunks {
		if cap(c) != encodedChunk {
			t.Fatalf("a chunk of capacity %d, want %d: it grew", cap(c), encodedChunk)
		}
	}
	for i := 0; i < 2; i++ {
		got, err := io.ReadAll(e.body())
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("body %d: %d bytes (err %v), want the %d written", i, len(got), err, len(want))
		}
	}
	sum := sha256.Sum256(want)
	if got := hex.EncodeToString(e.hash.Sum(nil)); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("hash %s, want %s", got, hex.EncodeToString(sum[:]))
	}
}
