package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"fmossim/internal/server"
)

// cluster is a set of in-process fmossimd workers: one server.Manager
// each, behind an httptest loopback server, as cmd/fmossimd serves it.
type cluster struct {
	mgrs      []*server.Manager
	srvs      []*httptest.Server
	urls      []string
	transport *http.Transport
	client    *http.Client
}

func startCluster(n, maxJobs int) *cluster {
	c := &cluster{transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	c.client = &http.Client{Transport: c.transport}
	for i := 0; i < n; i++ {
		m := server.NewManager(server.Config{MaxJobs: maxJobs})
		s := httptest.NewServer(m.Handler())
		c.mgrs = append(c.mgrs, m)
		c.srvs = append(c.srvs, s)
		c.urls = append(c.urls, s.URL)
	}
	return c
}

// close stops every server and manager and waits for them.
func (c *cluster) close() {
	c.transport.CloseIdleConnections()
	for i := range c.srvs {
		c.srvs[i].Close()
		c.mgrs[i].Close()
	}
}

// roundTrip is one HTTP exchange as the tracing transport saw it: from
// the request leaving to the response body reaching EOF or being closed.
type roundTrip struct {
	route    string // "PUT /recordings", "POST /jobs", "GET /stream", ...
	host     string
	status   int
	dur      time.Duration
	up, down int64
}

// tracingTransport is the timing/counting http.RoundTripper of the traced
// pass. It records one span and one roundTrip per exchange; the span ends
// when the body is drained, so a stream's span covers the whole job.
type tracingTransport struct {
	base   http.RoundTripper
	t      *tracer
	parent *handle
	urls   []string

	mu    sync.Mutex
	trips []roundTrip
}

func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/stream"):
		p = "/stream"
	case strings.HasPrefix(p, "/recordings"):
		p = "/recordings"
	case strings.HasPrefix(p, "/jobs"):
		p = "/jobs"
	}
	return r.Method + " " + p
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req)
	h := tt.t.begin(tt.parent, tt.lane(req), "http."+route)
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		h.end()
		return nil, err
	}
	rt := roundTrip{route: route, host: req.URL.Host, status: resp.StatusCode, up: max(req.ContentLength, 0)}
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(n int64) {
		rt.down, rt.dur = n, h.end()
		tt.mu.Lock()
		tt.trips = append(tt.trips, rt)
		tt.mu.Unlock()
	}}
	return resp, nil
}

// countedBody counts the bytes read and reports once, at EOF or Close.
type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// laneKey carries a client goroutine's display row in a request context.
type laneKey struct{}

// lane is the display row of an exchange: the client goroutine's own row
// when it set one (burst clients), else one row per worker the request
// goes to (the coordinator's single client).
func (tt *tracingTransport) lane(r *http.Request) int {
	if l, ok := r.Context().Value(laneKey{}).(int); ok {
		return l
	}
	for i, u := range tt.urls {
		if strings.HasSuffix(u, r.URL.Host) {
			return i + 1
		}
	}
	return 0
}

// traced returns a client whose exchanges are recorded under parent.
func (c *cluster) traced(t *tracer, parent *handle) (*http.Client, *tracingTransport) {
	tt := &tracingTransport{base: c.transport, t: t, parent: parent, urls: c.urls}
	return &http.Client{Transport: tt}, tt
}

// jobSample is one job as its client saw it.
type jobSample struct {
	typ     int           // index into the job mix
	latency time.Duration // clock-corrected by burst.run; as measured elsewhere
	wall    wall          // the latency with its calibrations (set by burst.run)
	bytes   int
	lines   int
	refused bool // 429
	res     *server.Result
	err     error
}

// httpJob submits one job over HTTP and follows its NDJSON stream to the
// result line, the way examples/client does. Latency runs from the POST
// leaving to the result line arriving.
func httpJob(ctx context.Context, client *http.Client, base string, spec *server.JobSpec) jobSample {
	var s jobSample
	t0 := time.Now()
	s.err = func() error {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		var snap server.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			s.refused = true
			return fmt.Errorf("POST /jobs: refused with 429")
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /jobs: %s", resp.Status)
		}
		if err != nil {
			return fmt.Errorf("decoding submit response: %w", err)
		}

		req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+snap.ID+"/stream", nil)
		if err != nil {
			return err
		}
		resp, err = client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /jobs/%s/stream: %s", snap.ID, resp.Status)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 256<<20) // a result line carries the per-fault table
		for sc.Scan() {
			s.lines++
			s.bytes += len(sc.Bytes()) + 1
			var line struct {
				Type   string         `json:"type"`
				State  server.State   `json:"state"`
				Error  string         `json:"error"`
				Result *server.Result `json:"result"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return fmt.Errorf("bad stream line: %w", err)
			}
			if line.Type == "result" && line.Result != nil {
				s.res = line.Result
				s.latency = time.Since(t0)
				io.Copy(io.Discard, resp.Body)
				return nil
			}
			if line.Type == "snapshot" && line.State.Terminal() && line.State != server.StateDone {
				return fmt.Errorf("job %s ended %s: %s", snap.ID, line.State, line.Error)
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("stream of job %s ended without a result line", snap.ID)
	}()
	if s.err != nil {
		s.latency = time.Since(t0)
	}
	return s
}

// inprocJob submits one job straight to the manager and waits for its
// terminal state: the same job without HTTP, JSON or streaming.
func inprocJob(m *server.Manager, spec server.JobSpec) (*server.Result, time.Duration, error) {
	t0 := time.Now()
	job, err := m.Submit(spec)
	if err != nil {
		return nil, 0, err
	}
	for !job.Snapshot().State.Terminal() {
		time.Sleep(200 * time.Microsecond)
	}
	d := time.Since(t0)
	if snap := job.Snapshot(); snap.State != server.StateDone {
		return nil, d, fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	return job.Result(), d, nil
}
