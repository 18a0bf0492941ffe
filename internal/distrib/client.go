// HTTP client half of the coordinator: the recording's wire form and its
// upload, shard submission, NDJSON stream consumption, and cancellation
// DELETEs.
package distrib

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// encoded is the campaign's recording as the coordinator holds it: its
// wire form, in fixed-size chunks filled and hashed as the StepWriter
// writes them — so no byte is copied to grow a buffer — and the
// fingerprint of those bytes, the upload's name and the shard jobs'
// recording_fp.
type encoded struct {
	chunks [][]byte
	size   int
	hash   hash.Hash
	fp     string
}

// encodedChunk is the size of one chunk of an encoded recording.
const encodedChunk = 256 << 10

func (e *encoded) Write(p []byte) (int, error) {
	e.hash.Write(p)
	e.size += len(p)
	for rest := p; len(rest) > 0; {
		last := len(e.chunks) - 1
		if last < 0 || len(e.chunks[last]) == cap(e.chunks[last]) {
			e.chunks = append(e.chunks, make([]byte, 0, encodedChunk))
			last++
		}
		c := e.chunks[last]
		n := min(len(rest), cap(c)-len(c))
		e.chunks[last] = append(c, rest[:n]...)
		rest = rest[n:]
	}
	return len(p), nil
}

// body returns a reader over the bytes, one per upload.
func (e *encoded) body() io.Reader {
	bufs := net.Buffers(slices.Clone(e.chunks))
	return &bufs
}

// streamRecording streams the campaign's good trajectory into its wire
// form through a switchsim.StepWriter: rec, validated, when the caller
// supplied one, else a capture over the workload's tables, encoded step
// by step as the good circuit produces it — the coordinator never
// replays the trajectory, so it never holds it decoded. It returns the
// bytes and the good work of each setting, which is all the merge reads
// of a recording.
func streamRecording(wl *server.Workload, rec *switchsim.Recording) (*encoded, func(si int) int64, error) {
	e := &encoded{hash: sha256.New()}
	settings := wl.Seq.NumSettings()
	var goodWork func(si int) int64
	if rec != nil {
		if err := rec.Validate(wl.Net, settings); err != nil {
			return nil, nil, err
		}
		rec.Encode(e) // an encoded never fails a write
		goodWork = rec.SettingWork
	} else {
		work := make([]int64, 0, settings)
		sw := switchsim.NewStepWriter(e, wl.Net.NumNodes(), wl.Net.NumTransistors(), 1+settings)
		core.Capture(wl.Tables, wl.Seq, core.Options{}, func(t *switchsim.StepTrace) {
			sw.Append(t)
			if !t.Init {
				work = append(work, t.GoodWork)
			}
		})
		if err := sw.Close(); err != nil {
			return nil, nil, err
		}
		goodWork = func(si int) int64 { return work[si] }
	}
	e.fp = hex.EncodeToString(e.hash.Sum(nil))
	return e, goodWork, nil
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
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, base+"/recordings/"+c.rec.fp, nil)
	if err != nil {
		return err
	}
	if resp, err := c.opts.Client.Do(req); err == nil {
		drain(resp)
		if resp.StatusCode == http.StatusOK {
			c.opts.Logf("distrib: recording %s already on %s", c.rec.fp[:12], base)
			c.uploaded[wi] = true
			return nil
		}
	}

	putCtx, cancelPut := context.WithTimeout(ctx, 2*time.Minute)
	defer cancelPut()
	req, err = http.NewRequestWithContext(putCtx, http.MethodPut,
		base+"/recordings/"+c.rec.fp, c.rec.body())
	if err != nil {
		return err
	}
	req.ContentLength = int64(c.rec.size)
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(c.rec.body()), nil }
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("PUT /recordings/%s: %s: %s", c.rec.fp[:12], resp.Status, readError(resp))
	}
	c.opts.Logf("distrib: uploaded recording %s to %s (%d bytes)", c.rec.fp[:12], base, c.rec.size)
	c.uploaded[wi] = true
	return nil
}

// submit POSTs one shard job, absorbing 429 load shedding by honoring
// Retry-After within the attempt. Returns the job id; a 409, the worker
// not holding the recording, comes back as server.ErrUnknownRecording.
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
			if resp.StatusCode == http.StatusConflict {
				return "", fmt.Errorf("POST /jobs: %s: %w %s", resp.Status, server.ErrUnknownRecording, c.rec.fp[:12])
			}
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

// streamLine is server.StreamLine as the coordinator reads it: of a
// result line it reads the batch alone, straight into the result the
// shard decodes into.
type streamLine struct {
	server.StreamLine
	Result *resultBatch `json:"result"`
}

// resultBatch is the part of a server.Result the coordinator reads.
type resultBatch struct {
	Batch batchInto `json:"batch"`
}

// batchInto decodes a result line's batch payload into br, through the
// slot's base64 buffer, and records that the line carried one.
type batchInto struct {
	br  *core.BatchResult
	bin *[]byte
	ok  bool
}

func (b *batchInto) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var err error
	*b.bin, err = b.br.DecodeJSON(data, *b.bin)
	b.ok = err == nil
	return err
}

// stream consumes one shard job's NDJSON progress to its terminal state,
// folding snapshots and detection groups into the merged progress view,
// and returns the raw batch result carried on the result line, decoded
// into into: its row tables are the ones the slot's previous shard
// released, so a slot fills one table for every shard it runs. A stream
// that breaks, or a job that ends failed or cancelled, is an error — the
// caller retries the shard. Lines are read into the slot's buffer.
func (c *coordinator) stream(ctx context.Context, slot int, base, jobID string, i int, into *core.BatchResult) (*core.BatchResult, error) {
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
	sc.Split(scanTerminatedLines)
	// A result line carries the whole BatchResult (per-setting table and
	// records included): beyond the scanner's 64KB default. The slot keeps
	// the buffer across its streams, so only its first result line grows
	// one.
	buf := c.lineBuf[slot]
	if buf == nil {
		buf = make([]byte, 0, 64*1024)
	}
	sc.Buffer(buf, 256<<20)
	res := &resultBatch{batchInto{br: into, bin: &c.binBuf[slot]}}
	sawTerminal := false
	for sc.Scan() {
		if line := sc.Bytes(); cap(line) > cap(c.lineBuf[slot]) {
			// The scanner grew its buffer, and a grown buffer starts with
			// the line that outgrew the old one: keep it. Nothing holds a
			// line past its Unmarshal, so the next stream may overwrite it.
			c.lineBuf[slot] = line[:0]
		}
		l := streamLine{Result: res}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("bad stream line from %s: %w", base, err)
		}
		switch {
		case l.Type == "snapshot" && l.Snapshot != nil:
			c.ledger.Report(i, campaign.ProgressEvent{Detected: l.Detected, LiveFaults: l.LiveFaults})
			if l.State.Terminal() {
				sawTerminal = true
				if l.State != server.StateDone {
					return nil, fmt.Errorf("job %s on %s ended %s: %s", jobID, base, l.State, l.Error)
				}
			}
		case l.Type == "detections" && l.DetectionGroup != nil:
			c.ledger.Report(i, campaign.ProgressEvent{Pattern: l.Pattern, Setting: l.Setting, NewlyDetected: l.Faults})
		case l.Type == "result":
			if l.Result == nil || !l.Result.Batch.ok {
				return nil, fmt.Errorf("job %s on %s: result line without batch payload", jobID, base)
			}
			return into, nil
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

// errUnterminatedLine ends a stream whose last line has no newline.
var errUnterminatedLine = errors.New("stream ended inside a line")

// scanTerminatedLines is bufio.ScanLines refusing an unterminated last
// line: every stream line ends in a newline, so a stream cut mid-line
// stops the scan as a broken stream, with the read error that cut it,
// instead of handing over half a line.
func scanTerminatedLines(data []byte, atEOF bool) (int, []byte, error) {
	if atEOF && len(data) > 0 && bytes.IndexByte(data, '\n') < 0 {
		return 0, nil, errUnterminatedLine
	}
	return bufio.ScanLines(data, atEOF)
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
