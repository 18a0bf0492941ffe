package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"fmossim/internal/server"
)

// config is one run of one workload.
type config struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	// quick swaps in RAM64 stand-ins and fixed small counts (two
	// gradings, one burst round): the smoke test's mode.
	quick bool
	// corrupt flips one verdict of the first timed grading before it is
	// checked, to show that a wrong result fails the run.
	corrupt bool
	// outDir receives the result and trace files ("" writes none).
	outDir string
}

// minSamples is the least number of timed gradings (or burst rounds) of a
// run, however short --seconds is.
const minSamples = 3

// report is the outcome of one run: the four-key result line the driver
// reads plus what a human needs to interpret it.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Samples are the timed gradings' (or jobs') walls, in order, as
	// measured and as corrected to the reference clock (see calib.go).
	// Quartiles are the corrected walls' first quartile, median and third
	// quartile over all samples, steady or not.
	Samples   []wall     `json:"samples,omitempty"`
	Quartiles [3]float64 `json:"quartiles_s"`
	// P90 is the 90th percentile, reported only when at least ten samples
	// lie beyond it.
	P90 float64 `json:"p90_s,omitempty"`
	// Setups are the set-up repetitions' walls, one before each sample;
	// setup_s is their typical corrected wall.
	Setups      []wall   `json:"setup_samples,omitempty"`
	ReferenceS  float64  `json:"reference_s"`
	Faults      int      `json:"faults"`
	Patterns    int      `json:"patterns"`
	Parallelism int      `json:"parallelism"`
	NumCPU      int      `json:"num_cpu"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	Failures    []string `json:"failures,omitempty"`

	traceTable string // the traced pass's per-span table, for the console
}

// check counts one operation and fails it when it errored or its outcome
// disagrees with the reference.
func (r *report) check(what string, ref, out *outcome, err error) {
	r.Attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
	} else if d := ref.diff(out); d != "" {
		r.fail("%s disagrees with the reference: %s", what, d)
	}
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(decls []metricDecl, name string, v float64) {
	for _, d := range decls {
		if d.Name == name {
			if _, dup := r.Metrics[name]; dup {
				panic("metric reported twice: " + name)
			}
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("undeclared metric: " + name)
}

// run executes one workload once: set-up, reference, then either the
// timed untraced gradings or the traced layer pass.
func run(ctx context.Context, cfg config) (*report, error) {
	// One thread runs Go code, collector included: the timed entry points
	// are single-thread, and the probes that are not raise this for their
	// own duration (probe.allCores).
	runtime.GOMAXPROCS(entryPar)
	w := cfg.workload
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Quick: cfg.quick,
		Metrics:     map[string]metric{},
		Parallelism: entryPar,
		NumCPU:      runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	goroutines := runtime.NumGoroutine()

	in, err := timedSetup(cfg, rep)
	if err != nil {
		return nil, err
	}
	defer in.close()
	rep.Faults, rep.Patterns = len(in.faults), len(in.seq.Patterns)

	// The oracle: reference verdicts by the monolithic one-worker path,
	// and a held-out sample re-graded by the per-fault simulator.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	t0 := time.Now()
	ref, err := reference(in.m.Net, in.obs, in.faults, in.seq)
	if err != nil {
		return nil, err
	}
	rep.Attempted++
	if err := checkHoldOut(in, ref, rng); err != nil {
		rep.fail("%v", err)
	}
	rep.ReferenceS = time.Since(t0).Seconds()

	switch {
	case cfg.trace:
		err = tracedPass(ctx, cfg, in, ref, rep)
	case w.grade == nil:
		err = timedBurst(ctx, cfg, in, rep)
	default:
		err = timedGradings(ctx, cfg, in, ref, rep)
	}
	if err != nil {
		return nil, err
	}

	// No goroutine or server may outlive the workload.
	in.close()
	if leaked := waitGoroutines(goroutines); leaked > 0 {
		rep.fail("%d goroutines outlived the workload", leaked)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// timedSetup does the workload's set-up once under the clock and adds the
// wall to the report's set-up samples. The timed passes repeat it before
// every sample, spread over the whole run like the gradings themselves,
// and close what it built at once.
func timedSetup(cfg config, rep *report) (*inputs, error) {
	runtime.GC()
	var in *inputs
	var err error
	w := clocked(func() { in, err = cfg.workload.build(cfg.seed, cfg.quick) })
	if err != nil {
		return nil, err
	}
	rep.Setups = append(rep.Setups, w)
	return in, nil
}

// samples calls sample until the time is up (quick: twice), a discarded
// repetition of the set-up before each call.
func samples(cfg config, rep *report, sample func(n int)) error {
	start := time.Now()
	for n := 0; ; n++ {
		if cfg.quick && n == 2 {
			return nil
		}
		if !cfg.quick && n >= minSamples && time.Since(start).Seconds() >= cfg.seconds {
			return nil
		}
		if n > 0 { // run's own set-up is the first repetition
			spare, err := timedSetup(cfg, rep)
			if err != nil {
				return err
			}
			spare.close()
		}
		sample(n)
	}
}

// waitGoroutines waits briefly for the goroutine count to fall back to
// base and returns how many are still above it.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-base, 0)
}

// allocated returns the bytes allocated so far, process-wide.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gradeChecked runs one grading through the entry point and checks it.
// It returns the grading's wall and the bytes it allocated.
func gradeChecked(ctx context.Context, cfg config, in *inputs, client *http.Client, ref *outcome, rep *report, corrupt bool) (w wall, alloc uint64) {
	runtime.GC()
	a0 := allocated()
	var out *outcome
	var err error
	w = clocked(func() { out, err = cfg.workload.grade(ctx, in, client) })
	alloc = allocated() - a0
	if err == nil && corrupt {
		out.Det[0].Detected = !out.Det[0].Detected
	}
	rep.check("grading", ref, out, err)
	return w, alloc
}

// timedGradings is the untraced measurement of a grading workload:
// complete gradings until the time is up. There is no warm-up to discard:
// the reference run has just warmed the process.
func timedGradings(ctx context.Context, cfg config, in *inputs, ref *outcome, rep *report) error {
	var client *http.Client
	if in.cluster != nil {
		client = in.cluster.client
	}
	var allocs []float64
	err := samples(cfg, rep, func(n int) {
		w, a := gradeChecked(ctx, cfg, in, client, ref, rep, cfg.corrupt && n == 0)
		rep.Samples = append(rep.Samples, w)
		allocs = append(allocs, float64(a))
	})
	if err != nil {
		return err
	}
	rep.finish(typical(rep.Samples), in.units(), median(allocs))
	return nil
}

// finish fills the end-to-end metrics: grade is the typical
// clock-corrected wall of one grading of the given size in fault·patterns.
func (r *report) finish(grade, units, allocPerGrade float64) {
	var all []float64
	for _, w := range r.Samples {
		all = append(all, w.S)
	}
	q1, med, q3 := quartiles(all)
	r.Quartiles = [3]float64{q1, med, q3}
	if len(all) >= 100 {
		r.P90 = percentile(all, 0.90)
	}
	r.set(endToEnd, "grade_wall_s", grade)
	r.set(endToEnd, "throughput_fps", units/grade)
	r.set(endToEnd, "alloc_mb_per_grade", allocPerGrade/1e6)
	r.set(endToEnd, "setup_s", typical(r.Setups))
}

// burst drives the closed loop: clients goroutines each POST their next
// job only after the previous result line arrived. Jobs come in rounds,
// each round the whole mix in an order drawn from rng; run ends at the
// first round boundary at which more() is false. Every result is checked
// against refs; every latency is clock-corrected by the calibrations its
// client ran around the job.
type burst struct {
	base    string
	client  *http.Client
	clients int
	mix     []server.JobSpec
	refs    []*outcome
	rng     *rand.Rand
	more    func() bool
	corrupt bool
	tracer  *tracer
	parent  *handle
}

// once is a more() that ends the loop after one round.
func once() bool { return false }

func (b *burst) run(ctx context.Context, rep *report) (samples []jobSample, elapsed time.Duration) {
	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for {
			for _, ti := range b.rng.Perm(len(b.mix)) {
				select {
				case jobs <- ti:
				case <-ctx.Done():
					return
				}
			}
			if !b.more() {
				return
			}
		}
	}()

	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			cctx := context.WithValue(ctx, laneKey{}, lane)
			for ti := range jobs {
				var s jobSample
				w := clocked(func() {
					h := b.tracer.begin(b.parent, lane, "server.burst_job")
					s = httpJob(cctx, b.client, b.base, &b.mix[ti])
					h.end()
				})
				// The latency ends at the result line, a little before
				// the wall does; it takes the wall's correction.
				s.typ = ti
				s.wall = wall{Raw: s.latency.Seconds(), S: s.latency.Seconds() * w.S / w.Raw, Cal: w.Cal}
				s.latency = time.Duration(s.wall.S * float64(time.Second))
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c + 1)
	}
	wg.Wait()
	elapsed = time.Since(start)

	for i, s := range samples {
		out, err := jobOutcome(s.res, s.err)
		if err == nil && b.corrupt && i == 0 {
			out.Det[0].Detected = !out.Det[0].Detected
		}
		rep.check(fmt.Sprintf("job %d (mix %d)", i, s.typ), b.refs[s.typ], out, err)
	}
	return samples, elapsed
}

// mixReferences computes the reference outcome and the size in
// fault·patterns of every job of the mix.
func mixReferences(mix []server.JobSpec) (refs []*outcome, units []float64, err error) {
	for i := range mix {
		wl, err := server.ResolveSpec(&mix[i])
		if err != nil {
			return nil, nil, err
		}
		ref, err := reference(wl.Net, wl.Observe, wl.Faults, wl.Seq)
		if err != nil {
			return nil, nil, err
		}
		refs = append(refs, ref)
		units = append(units, float64(len(wl.Faults)*len(wl.Seq.Patterns)))
	}
	return refs, units, nil
}

// mixLatency is what a job drawn evenly from the mix costs: the mean over
// the mix's entries of each entry's typical completed job. The entries
// differ eightfold in cost, so a median over all jobs would sit on
// whichever entry happens to be in the middle. An entry with no completed
// job counts 0; its jobs have already failed the run.
func mixLatency(samples []jobSample, entries int) float64 {
	per := make([][]wall, entries)
	for _, s := range samples {
		if s.err == nil {
			per[s.typ] = append(per[s.typ], s.wall)
		}
	}
	var sum float64
	for _, ws := range per {
		sum += typical(ws)
	}
	return sum / float64(entries)
}

// timedBurst is the untraced measurement of the burst workload: rounds of
// the job mix until the time is up, after one discarded round that fills
// the server's table and recording caches, as a long-running fmossimd's
// are. A grading is a job here, and the reported wall is mixLatency.
func timedBurst(ctx context.Context, cfg config, in *inputs, rep *report) error {
	refs, units, err := mixReferences(in.mix)
	if err != nil {
		return err
	}
	b := &burst{
		base: in.cluster.urls[0], client: in.cluster.client, clients: entryPar,
		mix: in.mix, refs: refs, rng: rand.New(rand.NewSource(cfg.seed)), more: once,
	}
	b.run(ctx, rep)

	var jobs []jobSample
	var allocs []float64
	err = samples(cfg, rep, func(n int) {
		b.corrupt = cfg.corrupt && n == 0
		runtime.GC()
		a0 := allocated()
		round, _ := b.run(ctx, rep)
		allocs = append(allocs, float64(allocated()-a0)/float64(len(round)))
		jobs = append(jobs, round...)
	})
	if err != nil {
		return err
	}
	var size float64
	for _, u := range units {
		size += u / float64(len(units))
	}
	for _, s := range jobs {
		if s.err == nil {
			rep.Samples = append(rep.Samples, s.wall)
		}
	}
	if len(rep.Samples) == 0 {
		return fmt.Errorf("no job of the burst completed: %v", rep.Failures)
	}
	rep.finish(mixLatency(jobs, len(in.mix)), size, median(allocs))
	return nil
}

// processStats fills the process.* context metrics.
func processStats(rep *report) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	rep.set(perLayer, "process.peak_rss_mb", peakRSSMB())
	rep.set(perLayer, "process.gc_pause_total_s", gc.PauseTotal.Seconds())
	rep.set(perLayer, "process.num_gc", float64(ms.NumGC))
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM);
// 0 where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
