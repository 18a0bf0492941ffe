// Uploaded-recording store: the server half of the distributed-campaign
// amortization. A coordinator records the good-circuit trajectory once,
// uploads the encoded bytes to each worker under their content
// fingerprint (SHA-256 of the encoding), and submits shard jobs that
// reference the fingerprint — so workers × shards campaigns pay for
// exactly one good-circuit simulation, cluster-wide.
//
//	PUT    /recordings/{fp}  upload an encoded recording -> 201 + meta
//	GET    /recordings/{fp}  presence check -> 200 + meta / 404
//	GET    /recordings       list stored recordings -> []meta
//	DELETE /recordings/{fp}  evict
//
// The fingerprint in the URL is the contract: the server re-hashes the
// body and rejects a mismatch with 400, so a corrupt or truncated upload
// can never be replayed under a healthy recording's name.
package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"

	"fmossim/internal/switchsim"
)

// maxRecordingBytes bounds one uploaded recording (the RAM256 sequence-1
// trajectory encodes to a few MB; the bound is generous headroom, not a
// target).
const maxRecordingBytes = 512 << 20

// RecordingMeta describes one stored recording.
type RecordingMeta struct {
	Fingerprint    string `json:"fingerprint"`
	NumNodes       int    `json:"num_nodes"`
	NumTransistors int    `json:"num_transistors"`
	NumSettings    int    `json:"num_settings"`
	Bytes          int    `json:"bytes"`
}

// recordingStore holds decoded recordings keyed by content fingerprint,
// bounded by Config.KeepRecordings with oldest-first eviction.
type recordingStore struct {
	mu      sync.Mutex
	max     int
	order   []string
	entries map[string]storedRecording
}

type storedRecording struct {
	rec  *switchsim.Recording
	size int
}

func newRecordingStore(max int) *recordingStore {
	return &recordingStore{max: max, entries: map[string]storedRecording{}}
}

// put stores a decoded recording under its fingerprint, evicting the
// oldest entries beyond the bound.
func (s *recordingStore) put(fp string, rec *switchsim.Recording, size int) RecordingMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.unlist(fp)
	s.entries[fp] = storedRecording{rec: rec, size: size}
	s.order = append(s.order, fp)
	for len(s.order) > s.max {
		delete(s.entries, s.order[0])
		s.order = s.order[1:]
	}
	return meta(fp, s.entries[fp])
}

// touch refreshes the eviction age of a stored fingerprint and returns its
// meta; it reports false when the store does not hold fp.
func (s *recordingStore) touch(fp string) (RecordingMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[fp]
	if !ok {
		return RecordingMeta{}, false
	}
	s.unlist(fp)
	s.order = append(s.order, fp)
	return meta(fp, e), true
}

// unlist removes fp from the eviction order, if listed. Caller holds mu.
func (s *recordingStore) unlist(fp string) {
	if i := slices.Index(s.order, fp); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
}

func (s *recordingStore) get(fp string) (storedRecording, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[fp]
	return e, ok
}

func (s *recordingStore) delete(fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[fp]; !ok {
		return false
	}
	delete(s.entries, fp)
	s.unlist(fp)
	return true
}

func (s *recordingStore) list() []RecordingMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RecordingMeta, 0, len(s.order))
	for _, fp := range s.order {
		out = append(out, meta(fp, s.entries[fp]))
	}
	return out
}

func meta(fp string, e storedRecording) RecordingMeta {
	return RecordingMeta{
		Fingerprint:    fp,
		NumNodes:       e.rec.NumNodes,
		NumTransistors: e.rec.NumTransistors,
		NumSettings:    e.rec.NumSettings(),
		Bytes:          e.size,
	}
}

func (m *Manager) handlePutRecording(w http.ResponseWriter, r *http.Request) {
	fp := strings.ToLower(r.PathValue("fp"))
	data, err := readBody(w, r, maxRecordingBytes)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("recording body over %d bytes", tooBig.Limit))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading recording body: %v", err))
		return
	}
	if got := switchsim.FingerprintBytes(data); got != fp {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"fingerprint mismatch: body hashes to %s, not %s", got, fp))
		return
	}
	// The hash matched, so a fingerprint the store holds names these very
	// bytes: decoding them again would only rebuild what is stored.
	if rm, ok := m.recordings.touch(fp); ok {
		writeJSON(w, http.StatusCreated, rm)
		return
	}
	rec, err := switchsim.DecodeRecordingBytes(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, m.recordings.put(fp, rec, len(data)))
}

// bodyReadAhead is the most readBody allocates for a body before its
// bytes arrive: room for any of the paper's recordings (RAM256 sequence 1
// encodes to 2.9 MB) in one buffer.
const bodyReadAhead = 8 << 20

// readBody reads a request body of at most limit bytes. With a
// Content-Length it reads into a buffer sized from it (io.ReadAll's
// doublings spend five times a recording's size on the way), but the
// header is a claim, not bytes: the first buffer holds at most
// bodyReadAhead, and each larger one, at most double the last and never
// past the declared size, is allocated only once the bytes have filled
// the one before. A declared size over limit is refused before a byte is
// read; the server ends the body at the declared length, and a body that
// stops short of it is an error. Without one (a chunked upload) it reads
// under http.MaxBytesReader as the body comes.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	size := r.ContentLength
	if size < 0 {
		return io.ReadAll(body)
	}
	if size > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	data := make([]byte, 0, min(size, bodyReadAhead))
	for int64(len(data)) < size {
		if len(data) == cap(data) {
			data = append(make([]byte, 0, min(size, 2*int64(cap(data)))), data...)
		}
		n, err := io.ReadFull(body, data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

func (m *Manager) handleGetRecording(w http.ResponseWriter, r *http.Request) {
	fp := strings.ToLower(r.PathValue("fp"))
	e, ok := m.recordings.get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, "no such recording")
		return
	}
	writeJSON(w, http.StatusOK, meta(fp, e))
}

func (m *Manager) handleDeleteRecording(w http.ResponseWriter, r *http.Request) {
	fp := strings.ToLower(r.PathValue("fp"))
	if !m.recordings.delete(fp) {
		writeError(w, http.StatusNotFound, "no such recording")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"fingerprint": fp, "status": "removed"})
}
