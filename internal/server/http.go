// HTTP surface: the job lifecycle endpoints, the NDJSON progress stream,
// and the recording store (see recording.go).
//
//	POST   /jobs             submit a campaign or shard job (JobSpec JSON) -> 202 + Snapshot / 400 / 409 / 429
//	GET    /jobs             list all jobs -> []Snapshot
//	GET    /jobs/{id}        one job's Snapshot (plus result when done)
//	GET    /jobs/{id}/stream NDJSON progress until the job is terminal
//	DELETE /jobs/{id}        cancel a live job / remove a terminal one
//	PUT    /recordings/{fp}  upload an encoded good-circuit recording
//	GET    /recordings[/{fp}] stored-recording metadata
//	DELETE /recordings/{fp}  evict a recording
//	GET    /healthz          liveness probe
//
// POST /jobs checks a job before it accepts it: a spec that does not
// validate or resolve — bad circuit, patterns, observed node, fault list,
// a recording that does not match the circuit, a shard window past the
// universe — answers 400, and a recording_fp the store does not hold
// answers 409 Conflict naming it, so the coordinator uploads it and
// submits again. An accepted job fails only if its campaign does. A
// saturated server answers POST /jobs with 429 and a Retry-After
// header. The stream emits three line types, one JSON object per line:
// {"type":"snapshot",...} progress snapshots (coverage monotonically
// non-decreasing, coalesced to at most one per Config.StreamInterval),
// {"type":"detections",...} detection event groups (never coalesced),
// and a final {"type":"result",...} (or terminal snapshot for
// failed/cancelled jobs) before the stream closes.
package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)


// StreamLine is one NDJSON line of GET /jobs/{id}/stream. Type names the
// line's kind, and the matching member is the one set: Snapshot for
// "snapshot", DetectionGroup for "detections", Result for "result" (the
// three field sets are disjoint).
type StreamLine struct {
	Type string `json:"type"`
	*Snapshot
	*DetectionGroup
	Result *Result `json:"result,omitempty"`
}

// Handler returns the HTTP handler serving the job API.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", m.handleSubmit)
	mux.HandleFunc("GET /jobs", m.handleList)
	mux.HandleFunc("GET /jobs/{id}", m.handleGet)
	mux.HandleFunc("GET /jobs/{id}/stream", m.handleStream)
	mux.HandleFunc("DELETE /jobs/{id}", m.handleDelete)
	mux.HandleFunc("PUT /recordings/{fp}", m.handlePutRecording)
	mux.HandleFunc("GET /recordings/{fp}", m.handleGetRecording)
	mux.HandleFunc("DELETE /recordings/{fp}", m.handleDeleteRecording)
	mux.HandleFunc("GET /recordings", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.recordings.list())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err))
		return
	}
	job, err := m.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Round up with a floor of 1: "Retry-After: 0" would invite an
		// immediate retry, defeating the shedding.
		secs := int(math.Ceil(m.cfg.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrUnknownRecording):
		writeError(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

// handleGet writes the job's Snapshot, with its terminal result, when it
// has one, as a "result" member after the snapshot's fields.
func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	snap, res := job.Snapshot(), job.Result()
	if res == nil {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	head, err := json.Marshal(snap)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(head[:len(head)-1])
	io.WriteString(w, `,"result":`)
	writeResult(w, res)
	io.WriteString(w, "}\n")
}

// writeResult writes res as JSON: the bytes json.Marshal gives for the
// result with its batch decoded, but with the batch's base64 string
// streamed from the binary form the job encoded as it finished, so that
// writing a result copies no batch.
func writeResult(w io.Writer, res *Result) error {
	head, err := json.Marshal(res)
	if err != nil || res.batch == nil {
		w.Write(head)
		return err
	}
	w.Write(head[:len(head)-1])
	io.WriteString(w, `,"batch":"`)
	enc := base64.NewEncoder(base64.StdEncoding, w)
	enc.Write(res.batch)
	enc.Close()
	_, err = io.WriteString(w, `"}`)
	return err
}

func (m *Manager) handleDelete(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if job.Snapshot().State.Terminal() {
		m.Remove(job.ID)
		writeJSON(w, http.StatusOK, map[string]string{"id": job.ID, "status": "removed"})
		return
	}
	m.Cancel(job.ID) // queued: leaves the queue and turns terminal now
	writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID, "status": "cancelling"})
}

// handleStream writes NDJSON progress until the job reaches a terminal
// state or the client disconnects. Snapshot lines coalesce bursts of
// progress events (each line reflects the latest state, throttled to
// Config.StreamInterval); detection groups are replayed completely, in
// order, from the job's append-only log.
func (m *Manager) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	enc := json.NewEncoder(w)
	cursor := 0
	var lastEvents int64 = -1
	var lastSnapshot time.Time
	for {
		snap, groups, newCursor, notify := job.observe(cursor)
		cursor = newCursor
		for i := range groups {
			enc.Encode(StreamLine{Type: "detections", DetectionGroup: &groups[i]})
		}
		terminal := snap.State.Terminal()
		if snap.Events != lastEvents &&
			(terminal || len(groups) > 0 || time.Since(lastSnapshot) >= m.cfg.StreamInterval) {
			enc.Encode(StreamLine{Type: "snapshot", Snapshot: &snap})
			lastEvents = snap.Events
			lastSnapshot = time.Now()
		}
		flusher.Flush()
		if terminal {
			if res := job.Result(); res != nil {
				io.WriteString(w, `{"type":"result","result":`)
				writeResult(w, res)
				io.WriteString(w, "}\n")
				flusher.Flush()
			}
			return
		}
		// Wait for what must not be delayed — a detection group or a state
		// change closes notify — or for the next snapshot to fall due:
		// progress without detections wakes nobody, so an event storm
		// coalesces into one snapshot line per StreamInterval.
		due := m.cfg.StreamInterval - time.Since(lastSnapshot)
		if due <= 0 {
			due = m.cfg.StreamInterval
		}
		tick := time.NewTimer(due)
		select {
		case <-notify:
		case <-tick.C:
		case <-r.Context().Done():
		}
		tick.Stop()
		if r.Context().Err() != nil {
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
