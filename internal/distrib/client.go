// HTTP client half of the coordinator: recording upload, shard
// submission, NDJSON stream consumption, and cancellation DELETEs.
package distrib

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// encodeRecording serializes the recording once, into one buffer sized
// up front, and fingerprints the bytes: the upload body and the shard
// jobs' recording_fp reference.
func encodeRecording(rec *switchsim.Recording) ([]byte, string) {
	encoded := rec.AppendBinary(nil)
	return encoded, switchsim.FingerprintBytes(encoded)
}

// ensureRecording uploads the encoded recording to worker wi unless a
// previous shard already did. The per-worker lock serializes first
// uploads; a failed upload leaves the flag clear so the next shard
// retries.
func (c *coordinator) ensureRecording(ctx context.Context, wi int) error {
	c.uploadMu[wi].Lock()
	defer c.uploadMu[wi].Unlock()
	if c.uploaded[wi] {
		return nil
	}
	base := c.opts.Workers[wi]

	// Presence check first: the fingerprint is a function of the trajectory
	// alone, so any earlier campaign over this circuit and sequence (or
	// this one, before a coordinator restart) has left the worker holding
	// it.
	reqCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, base+"/recordings/"+c.fp, nil)
	if err != nil {
		return err
	}
	if resp, err := c.opts.Client.Do(req); err == nil {
		drain(resp)
		if resp.StatusCode == http.StatusOK {
			c.opts.Logf("distrib: recording %s already on %s", c.fp[:12], base)
			c.uploaded[wi] = true
			return nil
		}
	}

	putCtx, cancelPut := context.WithTimeout(ctx, 2*time.Minute)
	defer cancelPut()
	req, err = http.NewRequestWithContext(putCtx, http.MethodPut,
		base+"/recordings/"+c.fp, bytes.NewReader(c.encoded))
	if err != nil {
		return err
	}
	req.ContentLength = int64(len(c.encoded))
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("PUT /recordings/%s: %s: %s", c.fp[:12], resp.Status, readError(resp))
	}
	c.opts.Logf("distrib: uploaded recording %s to %s (%d bytes)", c.fp[:12], base, len(c.encoded))
	c.uploaded[wi] = true
	return nil
}

// submit POSTs one shard job, absorbing 429 load shedding by honoring
// Retry-After within the attempt. Returns the job id.
func (c *coordinator) submit(ctx context.Context, base string, spec *server.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	for try := 0; ; try++ {
		reqCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
		if err != nil {
			cancel()
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.opts.Client.Do(req)
		if err != nil {
			cancel()
			return "", err
		}
		if resp.StatusCode == http.StatusTooManyRequests && try < maxTransientRetries {
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			drain(resp)
			cancel()
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return "", ctx.Err()
			}
		}
		if resp.StatusCode != http.StatusAccepted {
			msg := readError(resp)
			drain(resp)
			cancel()
			return "", fmt.Errorf("POST /jobs: %s: %s", resp.Status, msg)
		}
		var snap server.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		drain(resp)
		cancel()
		if err != nil {
			return "", fmt.Errorf("decoding submit response: %w", err)
		}
		return snap.ID, nil
	}
}

// stream consumes one shard job's NDJSON progress to its terminal state,
// folding snapshots and detection groups into the merged progress view,
// and returns the raw batch result carried on the result line. A stream
// that breaks, or a job that ends failed or cancelled, is an error — the
// caller requeues the shard.
func (c *coordinator) stream(ctx context.Context, base, jobID string, sh *shardState) (*core.BatchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s/stream: %s", jobID, resp.Status)
	}

	sc := bufio.NewScanner(resp.Body)
	// A result line carries the whole BatchResult (per-setting table and
	// records included): beyond the scanner's 64KB default.
	sc.Buffer(make([]byte, 0, 64*1024), 256<<20)
	sawTerminal := false
	for sc.Scan() {
		var l server.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("bad stream line from %s: %w", base, err)
		}
		switch {
		case l.Type == "snapshot" && l.Snapshot != nil:
			c.ledger.Report(sh.idx, campaign.ProgressEvent{Detected: l.Detected, LiveFaults: l.LiveFaults})
			if l.State.Terminal() {
				sawTerminal = true
				if l.State != server.StateDone {
					return nil, fmt.Errorf("job %s on %s ended %s: %s", jobID, base, l.State, l.Error)
				}
			}
		case l.Type == "detections" && l.DetectionGroup != nil:
			c.ledger.Report(sh.idx, campaign.ProgressEvent{Pattern: l.Pattern, Setting: l.Setting, NewlyDetected: l.Faults})
		case l.Type == "result":
			if l.Result == nil || l.Result.Batch == nil {
				return nil, fmt.Errorf("job %s on %s: result line without batch payload", jobID, base)
			}
			return l.Result.Batch, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream from %s broke: %w", base, err)
	}
	if sawTerminal {
		return nil, fmt.Errorf("job %s on %s: stream ended without a result line", jobID, base)
	}
	return nil, fmt.Errorf("stream from %s ended mid-job", base)
}

// recordingGone reports whether the worker definitively no longer holds
// the campaign recording (a 404 from GET /recordings/{fp}). Transport
// errors and other statuses report false: absence must be proven, not
// assumed, before the coordinator rewinds its upload state.
func (c *coordinator) recordingGone(base string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/recordings/"+c.fp, nil)
	if err != nil {
		return false
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return false
	}
	drain(resp)
	return resp.StatusCode == http.StatusNotFound
}

// deleteJob best-effort cancels an outstanding job. It runs on its own
// short deadline, not the (possibly already cancelled) run context: this
// is the DELETE propagation that stops remaining shards cluster-wide.
func (c *coordinator) deleteJob(base, jobID string) {
	if jobID == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/jobs/"+jobID, nil)
	if err != nil {
		return
	}
	if resp, err := c.opts.Client.Do(req); err == nil {
		drain(resp)
	}
}

// readError extracts the server's {"error": ...} message, if any.
func readError(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(data)
}

// drain discards the rest of a response body and closes it, keeping the
// connection reusable.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
