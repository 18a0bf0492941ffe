// Public facade: type aliases and constructors over the internal
// packages. Package documentation lives in doc.go.
package fmossim

import (
	"context"
	"io"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/distrib"
	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/serial"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
	"fmossim/internal/trace"
)

// Ternary logic values.
type Value = logic.Value

// Logic value constants.
const (
	Lo = logic.Lo
	Hi = logic.Hi
	X  = logic.X
)

// TransistorType is one of the three switch types (n/p/d).
type TransistorType = logic.TransistorType

// Transistor types.
const (
	NType = logic.NType
	PType = logic.PType
	DType = logic.DType
)

// Scale declares how many node sizes and transistor strengths a network
// uses.
type Scale = logic.Scale

// Network construction.
type (
	// Network is a switch-level network of nodes and transistors.
	Network = netlist.Network
	// Builder constructs networks with power-rail conventions.
	Builder = netlist.Builder
	// NodeID identifies a node; TransID a transistor.
	NodeID  = netlist.NodeID
	TransID = netlist.TransID
)

// NewNetwork returns an empty network with the given scale.
func NewNetwork(scale Scale) *Network { return netlist.New(scale) }

// NewBuilder returns a construction helper with Vdd/Gnd declared.
func NewBuilder(scale Scale) *Builder { return netlist.NewBuilder(scale) }

// Logic simulation.
type (
	// LogicSimulator is the switch-level logic simulator (MOSSIM-II
	// equivalent): one circuit stepped through input settings.
	LogicSimulator = switchsim.Simulator
	// Setting is one simultaneous input assignment; Pattern a named group
	// of settings (one clock cycle); Sequence an ordered test sequence.
	Setting  = switchsim.Setting
	Pattern  = switchsim.Pattern
	Sequence = switchsim.Sequence
)

// NewLogicSimulator builds a logic simulator over a finalized network.
func NewLogicSimulator(nw *Network) *LogicSimulator {
	return switchsim.NewSimulator(nw)
}

// Vector builds a Setting from node-name/value pairs.
func Vector(nw *Network, pairs map[string]Value) (Setting, error) {
	return switchsim.Vector(nw, pairs)
}

// Fault modeling.
type (
	// Fault is one fault instance; FaultKind its class.
	Fault     = fault.Fault
	FaultKind = fault.Kind
	// FaultOptions configures enumeration.
	FaultOptions = fault.Options
)

// Fault kinds.
const (
	NodeStuck0       = fault.NodeStuck0
	NodeStuck1       = fault.NodeStuck1
	NodeStuckX       = fault.NodeStuckX
	TransStuckOpen   = fault.TransStuckOpen
	TransStuckClosed = fault.TransStuckClosed
	Bridge           = fault.Bridge
	Open             = fault.Open
)

// NodeStuckFaults enumerates stuck-at-0/1 faults on every storage node.
func NodeStuckFaults(nw *Network, opt FaultOptions) []Fault {
	return fault.NodeStuckFaults(nw, opt)
}

// TransistorStuckFaults enumerates stuck-open/closed faults on every real
// transistor.
func TransistorStuckFaults(nw *Network, opt FaultOptions) []Fault {
	return fault.TransistorStuckFaults(nw, opt)
}

// Concurrent fault simulation (the FMOSSIM algorithm).
type (
	// FaultSimulator is the concurrent fault simulator.
	FaultSimulator = core.Simulator
	// FaultSimOptions configures it; FaultSimResult is a run's outcome.
	FaultSimOptions = core.Options
	FaultSimResult  = core.Result
	// Detection describes one fault's first detection.
	Detection = core.Detection
	// DropPolicy selects when detected circuits are dropped.
	DropPolicy = core.DropPolicy
)

// Drop policies.
const (
	DropAnyDifference = core.DropAnyDifference
	DropHardOnly      = core.DropHardOnly
	NeverDrop         = core.NeverDrop
)

// NewFaultSimulator builds a concurrent fault simulator: the good circuit
// is initialized and every fault inserted (present from power-on) before
// the first pattern.
func NewFaultSimulator(nw *Network, faults []Fault, opts FaultSimOptions) (*FaultSimulator, error) {
	return core.New(nw, faults, opts)
}

// Batched fault campaigns (trajectory-decoupled execution).
type (
	// Recording is the good circuit's captured trajectory: record once
	// with RecordTrajectory (or serialize with Encode/DecodeRecording),
	// replay with any number of fault batches.
	Recording = switchsim.Recording
	// CampaignOptions configures a sharded campaign; CampaignResult is
	// its merged outcome.
	CampaignOptions = campaign.Options
	CampaignResult  = campaign.Result
	// CampaignProgress is one streaming progress event (see
	// CampaignOptions.Progress): per-setting coverage, live-fault counts,
	// and detection events, emitted concurrently from the shard pool.
	CampaignProgress = campaign.ProgressEvent
)

// RecordTrajectory simulates only the good circuit through seq and
// captures its trajectory — per-setting changed sets, input deltas, the
// initialization settle, and the adoption trajectories — as a reusable
// Recording. Campaigns replaying it never re-run the good-circuit solver.
func RecordTrajectory(nw *Network, seq *Sequence, opts FaultSimOptions) *Recording {
	return core.Record(nw, seq, opts)
}

// DecodeRecording reads a Recording previously serialized with Encode.
func DecodeRecording(r io.Reader) (*Recording, error) {
	return switchsim.DecodeRecording(r)
}

// Campaign runs a sharded fault campaign: the good trajectory is recorded
// (or taken from opts.Recording), the fault universe is partitioned into
// batches, and the batches replay concurrently with per-batch pooled
// memory. Results are bit-identical to a monolithic FaultSimulator run
// for every batch size, shard count, and worker count.
func Campaign(nw *Network, faults []Fault, seq *Sequence, opts CampaignOptions) (*CampaignResult, error) {
	return campaign.Run(context.Background(), nw, faults, seq, opts)
}

// CampaignContext is Campaign with cooperative cancellation: cancelling
// ctx stops in-flight batches between input settings and returns ctx's
// error. Long-running services (cmd/fmossimd) use this form to cancel and
// time-bound jobs.
func CampaignContext(ctx context.Context, nw *Network, faults []Fault, seq *Sequence, opts CampaignOptions) (*CampaignResult, error) {
	return campaign.Run(ctx, nw, faults, seq, opts)
}

// Distributed fault campaigns (many fmossimd workers, one merged result).
type (
	// JobSpec describes a campaign workload to the fmossimd job server —
	// and, handed to DistributedCampaign, the workload a coordinator fans
	// out across a worker pool.
	JobSpec = server.JobSpec
	// DistribOptions configures the distributed coordinator: the worker
	// pool, per-worker in-flight bound, shard size, retry budget, the
	// checkpoint log, and the merged progress callback.
	DistribOptions = distrib.Options
)

// DistributedCampaign spreads one fault campaign across a pool of
// fmossimd workers: the good trajectory is recorded (or taken from
// opts.Recording) and uploaded to each worker once by content
// fingerprint, the fault universe is partitioned into shard jobs
// dispatched over the workers' HTTP job API and retried on another worker
// on failure, and the per-shard batch results merge at setting granularity
// into a result bit-identical to Campaign on one machine with the same
// batch size. spec.CoverageTarget and ctx mean what they mean to
// Campaign (see internal/campaign, "Early stop and cancellation").
func DistributedCampaign(ctx context.Context, spec JobSpec, opts DistribOptions) (*CampaignResult, error) {
	return distrib.Run(ctx, spec, opts)
}

// Serial reference simulation.
type (
	// SerialOptions configures the serial baseline; SerialResult is its
	// outcome.
	SerialOptions = serial.Options
	SerialResult  = serial.Result
)

// RunSerial simulates every fault in its own full circuit copy: the
// baseline concurrent simulation is compared against.
func RunSerial(nw *Network, faults []Fault, seq *Sequence, opts SerialOptions) (*SerialResult, error) {
	return serial.Run(nw, faults, seq, opts)
}

// Benchmark circuits.
type (
	// RAM is a generated 3T-cell dynamic RAM (the paper's evaluation
	// substrate); RAMConfig sizes it.
	RAM       = ram.RAM
	RAMConfig = ram.Config
)

// NewRAM generates a dynamic RAM instance.
func NewRAM(cfg RAMConfig) *RAM { return ram.New(cfg) }

// RAM64 generates the paper's 8×8 instance; RAM256 the 16×16 one.
func RAM64() *RAM  { return ram.RAM64() }
func RAM256() *RAM { return ram.RAM256() }

// Waveform tracing.

// TraceRecorder captures watched node values and writes IEEE 1364 VCD.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a VCD recorder over w watching the given nodes
// (all nodes when empty); attach it to a LogicSimulator with Attach.
func NewTraceRecorder(w io.Writer, nw *Network, nodes []NodeID) *TraceRecorder {
	return trace.New(w, nw, nodes)
}
