// Job specifications: the JSON body of POST /jobs and its resolution
// into a runnable workload (network, tables, fault universe, test
// sequence, recording), with the caches that let concurrent jobs share
// one set of read-only tables and one recorded good trajectory per
// circuit/sequence pair.
package server

import (
	"fmt"
	"strings"
	"sync"

	"fmossim/internal/core"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// JobSpec is a campaign submission: either a built-in benchmark workload
// (Workload + Sequence) or an inline circuit (Netlist + Patterns +
// Observe), a fault universe, and campaign options. The zero value of
// every optional field selects the documented default.
type JobSpec struct {
	// Workload selects a built-in benchmark circuit: "ram64" (the paper's
	// 8×8 dynamic RAM) or "ram256" (16×16). Mutually exclusive with
	// Netlist.
	Workload string `json:"workload,omitempty"`
	// Sequence selects the built-in test sequence for a Workload:
	// "sequence1" (control + row/column march + array march; default) or
	// "sequence2" (control + array march only).
	Sequence string `json:"sequence,omitempty"`
	// MaxPatterns truncates the resolved sequence to its first N patterns
	// (0 = the whole sequence): a cheap way to bound a job's runtime.
	MaxPatterns int `json:"max_patterns,omitempty"`

	// Netlist is an inline netlist in the internal/netlist text format;
	// Patterns is an inline pattern script in the cmd/fmossim format
	// (parsed by switchsim.ParseSequence). Both are required when
	// Workload is empty.
	Netlist  string `json:"netlist,omitempty"`
	Patterns string `json:"patterns,omitempty"`
	// Observe names the observed output nodes. Defaults to the built-in
	// workload's data output; required for inline netlists.
	Observe []string `json:"observe,omitempty"`

	// Faults is an inline fault list in the internal/fault text format.
	// When empty, FaultModel picks the universe: "paper" (node stuck-at +
	// bit-line bridges; built-in workloads' default) or "stuck" (node
	// stuck-at only; inline netlists' default and only choice).
	Faults     string `json:"faults,omitempty"`
	FaultModel string `json:"fault_model,omitempty"`
	// SampleEvery keeps every k-th fault of the resolved universe
	// (0 or 1 = all): statistical fault sampling for quick estimates.
	SampleEvery int `json:"sample_every,omitempty"`

	// Campaign options, mirroring cmd/fmossim's flags. Zero values defer
	// to the campaign engine's defaults, except Shards: a zero Shards is
	// replaced by the server's fair share (GOMAXPROCS / MaxJobs) so
	// concurrent jobs do not oversubscribe the machine.
	BatchSize      int     `json:"batch_size,omitempty"`
	Shards         int     `json:"shards,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	CoverageTarget float64 `json:"coverage_target,omitempty"`
	// Drop is the fault-dropping policy: "any" (default), "hard", or
	// "never".
	Drop string `json:"drop,omitempty"`
	// Trim is read by nothing: every batch is trimmed (see
	// core.Options.Trim). It still decodes, because benchmarks/ sets it
	// and its server probe posts "trim": true, until a benchmark PR drops
	// it.
	Trim bool `json:"trim,omitempty"`

	// IncludePerFault adds the per-fault outcome table to the job result.
	IncludePerFault bool `json:"include_per_fault,omitempty"`

	// Shard-job fields: the distributed-campaign worker path (see
	// internal/distrib and ARCHITECTURE.md). When ShardHi > 0 the job is
	// a shard job: instead of a full campaign it runs exactly one batch —
	// core.RunBatch over the half-open window [shard_lo, shard_hi) of the
	// resolved fault universe — so a coordinator that resolves the same
	// spec locally (server.ResolveSpec) can partition the universe and
	// know each worker sees identical fault indices. Its result carries
	// the window's detected count and coverage and, with IncludeBatch,
	// the raw batch; nothing is merged on the worker.
	ShardLo int `json:"shard_lo,omitempty"`
	ShardHi int `json:"shard_hi,omitempty"`
	// RecordingFP references a good-circuit trajectory previously
	// uploaded with PUT /recordings/{fp} by its content fingerprint (the
	// SHA-256 of its encoded bytes, switchsim.FingerprintBytes). The job
	// replays the uploaded recording instead of re-recording the good
	// circuit; the job fails if the fingerprint is unknown or the
	// recording does not match the resolved network and sequence.
	RecordingFP string `json:"recording_fp,omitempty"`
	// IncludeBatch embeds the raw core.BatchResult in a shard job's
	// result so the coordinator can merge shards at setting granularity
	// (campaign.Merge), bit-identical to a single-process campaign.
	IncludeBatch bool `json:"include_batch,omitempty"`
}

// IsShard reports whether the spec is a shard job (a single-batch window
// of the fault universe, dispatched by a distributed coordinator).
func (s *JobSpec) IsShard() bool { return s.ShardHi > 0 }

// validate performs the submit-time checks that should 400 instead of
// failing the job later.
func (s *JobSpec) validate() error {
	switch {
	case s.Workload == "" && s.Netlist == "":
		return fmt.Errorf("one of workload or netlist is required")
	case s.Workload != "" && s.Netlist != "":
		return fmt.Errorf("workload and netlist are mutually exclusive")
	}
	if s.Workload != "" {
		switch s.Workload {
		case "ram64", "ram256":
		default:
			return fmt.Errorf("unknown workload %q (want ram64 or ram256)", s.Workload)
		}
		switch s.Sequence {
		case "", "sequence1", "sequence2":
		default:
			return fmt.Errorf("unknown sequence %q (want sequence1 or sequence2)", s.Sequence)
		}
	} else {
		if s.Patterns == "" {
			return fmt.Errorf("patterns is required with an inline netlist")
		}
		if len(s.Observe) == 0 {
			return fmt.Errorf("observe is required with an inline netlist")
		}
	}
	switch s.FaultModel {
	case "", "stuck":
	case "paper":
		if s.Workload == "" {
			return fmt.Errorf("fault_model paper requires a built-in workload")
		}
	default:
		return fmt.Errorf("unknown fault_model %q (want paper or stuck)", s.FaultModel)
	}
	switch s.Drop {
	case "", "any", "hard", "never":
	default:
		return fmt.Errorf("unknown drop policy %q (want any, hard, or never)", s.Drop)
	}
	if s.CoverageTarget < 0 || s.CoverageTarget > 1 {
		return fmt.Errorf("coverage_target %v out of range (0,1]", s.CoverageTarget)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"max_patterns", s.MaxPatterns}, {"sample_every", s.SampleEvery},
		{"batch_size", s.BatchSize}, {"shards", s.Shards}, {"workers", s.Workers},
		{"shard_lo", s.ShardLo}, {"shard_hi", s.ShardHi}} {
		if f.v < 0 {
			return fmt.Errorf("%s must be non-negative", f.name)
		}
	}
	switch {
	case s.ShardHi > 0 && s.ShardLo >= s.ShardHi:
		return fmt.Errorf("shard window [%d,%d) is empty", s.ShardLo, s.ShardHi)
	case s.ShardHi == 0 && s.ShardLo != 0:
		return fmt.Errorf("shard_lo without shard_hi")
	case s.IncludeBatch && !s.IsShard():
		return fmt.Errorf("include_batch requires a shard job (shard_hi > 0)")
	case s.IsShard() && s.CoverageTarget != 0:
		return fmt.Errorf("coverage_target does not apply to shard jobs (the coordinator owns early stop)")
	case s.IsShard() && s.IncludePerFault:
		return fmt.Errorf("include_per_fault does not apply to shard jobs (include_batch carries every fault's outcome)")
	}
	return nil
}

// dropPolicy maps the spec string to the core policy.
func (s *JobSpec) dropPolicy() core.DropPolicy {
	switch s.Drop {
	case "hard":
		return core.DropHardOnly
	case "never":
		return core.NeverDrop
	}
	return core.DropAnyDifference
}

// SimOptions returns the per-batch simulator options the spec selects
// over its resolved workload.
func (s *JobSpec) SimOptions(wl *Workload) core.Options {
	return core.Options{
		Observe: wl.Observe,
		Drop:    s.dropPolicy(),
		Workers: s.Workers,
	}
}

// workloadKey identifies the shareable part of a built-in workload — the
// circuit plus the whole test sequence — for the Tables and Recording
// caches; a truncated sequence is served from the whole one's entry (see
// circuitEntry.workload), so max_patterns values add no entries. Inline
// netlists are not cached (the parse is the cheap part; the trajectory
// depends on the full inline text anyway).
func (s *JobSpec) workloadKey() (string, bool) {
	if s.Workload == "" {
		return "", false
	}
	seq := s.Sequence
	if seq == "" {
		seq = "sequence1"
	}
	return s.Workload + "/" + seq, true
}

// Workload is a resolved, runnable campaign workload: everything
// campaign.Run (or a shard job's core.RunBatch) needs. ResolveSpec
// produces one outside the server so a distributed coordinator
// (internal/distrib) enumerates the exact fault universe its workers
// will resolve from the same spec: shard windows computed locally index
// the same faults remotely.
type Workload struct {
	Net     *netlist.Network
	Tables  *switchsim.Tables
	Faults  []fault.Fault
	Seq     *switchsim.Sequence
	Observe []netlist.NodeID
	// Recording is the good-circuit trajectory the job replays: the
	// cached capture of a built-in workload, or the upload a spec's
	// recording_fp names. Nil until one of the two is attached.
	Recording *switchsim.Recording

	ram *ram.RAM // non-nil for built-in workloads
}

// circuitEntry is one cached built-in circuit + whole sequence: the
// network and tables are immutable after construction and shared by every
// job over the workload; the recording is captured once, on first use,
// under the entry's own lock so concurrent first jobs do not record twice.
type circuitEntry struct {
	nw  *netlist.Network
	m   *ram.RAM
	tab *switchsim.Tables
	seq *switchsim.Sequence

	recOnce sync.Once
	rec     *switchsim.Recording
}

// cache shares read-only simulation state across jobs.
type cache struct {
	mu      sync.Mutex
	entries map[string]*circuitEntry
}

func newCache() *cache { return &cache{entries: map[string]*circuitEntry{}} }

// builtin returns (building and caching on first use) the circuit entry
// for a built-in workload spec.
func (c *cache) builtin(spec *JobSpec) *circuitEntry {
	key, ok := spec.workloadKey()
	if !ok {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e
	}
	e := newCircuitEntry(spec)
	c.entries[key] = e
	return e
}

// newCircuitEntry constructs a built-in workload's circuit, tables and
// whole test sequence. Construction is deterministic: every process
// resolving the same spec builds the identical network and sequence,
// which is what lets coordinator and workers agree on fault indices and
// recording fingerprints without shipping circuits around.
func newCircuitEntry(spec *JobSpec) *circuitEntry {
	var m *ram.RAM
	if spec.Workload == "ram256" {
		m = ram.RAM256()
	} else {
		m = ram.RAM64()
	}
	var seq *switchsim.Sequence
	if spec.Sequence == "sequence2" {
		seq = march.Sequence2(m)
	} else {
		seq = march.Sequence1(m)
	}
	return &circuitEntry{nw: m.Net, m: m, tab: switchsim.NewTables(m.Net), seq: seq}
}

// workload resolves spec over the entry. Its sequence is a copy of the
// entry's with the patterns truncated to max_patterns, and, when
// withRecording, its recording the whole recording's first 1+settings
// steps: a capture is a pure function of the steps so far, so that prefix
// encodes byte-identically to a capture of the truncated sequence.
func (e *circuitEntry) workload(spec *JobSpec, withRecording bool) (*Workload, error) {
	seq := *e.seq
	truncate(&seq, spec.MaxPatterns)
	wl := &Workload{Net: e.nw, Tables: e.tab, Seq: &seq, ram: e.m}
	if withRecording {
		rec := *e.recording()
		rec.Steps = rec.Steps[:1+seq.NumSettings()]
		wl.Recording = &rec
	}
	return finishResolve(spec, wl)
}

// recording captures (once) and returns the entry's good trajectory.
func (e *circuitEntry) recording() *switchsim.Recording {
	e.recOnce.Do(func() {
		e.rec = core.Record(e.nw, e.seq, core.Options{})
	})
	return e.rec
}

// truncate clips seq to its first n patterns (no-op when n is 0 or
// already covers the sequence).
func truncate(seq *switchsim.Sequence, n int) {
	if n > 0 && n < len(seq.Patterns) {
		seq.Patterns = seq.Patterns[:n]
	}
}

// resolve turns a validated spec into a runnable workload, sharing cached
// tables and trajectories for built-in workloads, whatever max_patterns
// asks (see circuitEntry.workload). A spec that names an uploaded
// recording is resolved without one: the job runs on the upload, and a
// worker must not simulate a good circuit it was sent.
func (m *Manager) resolve(spec *JobSpec) (*Workload, error) {
	if spec.Workload != "" {
		return m.cache.builtin(spec).workload(spec, spec.RecordingFP == "")
	}
	return resolveInline(spec)
}

// ResolveSpec resolves a validated spec into a runnable workload with no
// server cache behind it: fresh tables, no recording. Distributed
// coordinators use it to enumerate the exact fault universe their
// workers will resolve from the same spec.
func ResolveSpec(spec *JobSpec) (*Workload, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Workload != "" {
		return newCircuitEntry(spec).workload(spec, false)
	}
	return resolveInline(spec)
}

// resolveInline resolves an inline-netlist spec (never cached: the parse
// is the cheap part, and the trajectory depends on the full text anyway).
func resolveInline(spec *JobSpec) (*Workload, error) {
	nw, err := netlist.Read(strings.NewReader(spec.Netlist))
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	seq, err := switchsim.ParseSequence(strings.NewReader(spec.Patterns), "patterns", nw)
	if err != nil {
		return nil, err
	}
	truncate(seq, spec.MaxPatterns)
	return finishResolve(spec, &Workload{Net: nw, Tables: switchsim.NewTables(nw), Seq: seq})
}

// finishResolve fills the observe set and fault universe of a workload
// whose circuit and sequence are already resolved.
func finishResolve(spec *JobSpec, wl *Workload) (*Workload, error) {
	var err error
	if len(spec.Observe) > 0 {
		if wl.Observe, err = lookupNodes(wl.Net, spec.Observe); err != nil {
			return nil, err
		}
	} else if wl.ram != nil {
		wl.Observe = []netlist.NodeID{wl.ram.DataOut}
	}
	if wl.Faults, err = resolveFaults(spec, wl.Net, wl.ram); err != nil {
		return nil, err
	}
	return wl, nil
}

// resolveFaults builds the job's fault universe: inline list, or the
// model default, then sampling.
func resolveFaults(spec *JobSpec, nw *netlist.Network, m *ram.RAM) ([]fault.Fault, error) {
	var faults []fault.Fault
	switch {
	case spec.Faults != "":
		var err error
		faults, err = fault.ReadList(strings.NewReader(spec.Faults), nw)
		if err != nil {
			return nil, fmt.Errorf("faults: %w", err)
		}
	case spec.FaultModel == "paper" || (spec.FaultModel == "" && m != nil):
		if m == nil {
			return nil, fmt.Errorf("fault_model paper requires a built-in workload")
		}
		faults = m.PaperFaults()
	default:
		faults = fault.NodeStuckFaults(nw, fault.Options{})
	}
	if k := spec.SampleEvery; k > 1 {
		sampled := make([]fault.Fault, 0, (len(faults)+k-1)/k)
		for i := 0; i < len(faults); i += k {
			sampled = append(sampled, faults[i])
		}
		faults = sampled
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("empty fault universe")
	}
	return faults, nil
}

func lookupNodes(nw *netlist.Network, names []string) ([]netlist.NodeID, error) {
	out := make([]netlist.NodeID, 0, len(names))
	for _, name := range names {
		id := nw.Lookup(strings.TrimSpace(name))
		if id == netlist.NoNode {
			return nil, fmt.Errorf("unknown observed node %q", name)
		}
		out = append(out, id)
	}
	return out, nil
}
