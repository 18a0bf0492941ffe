// Batched fault campaigns: record the good circuit once, shard the fault
// universe, replay concurrently.
//
// The monolithic simulator re-runs the good circuit for every invocation
// and keeps every fault resident at once. A campaign decouples the two:
// RecordTrajectory captures the good circuit's full settling history as a
// serializable artifact, and Campaign streams fault batches against it —
// each batch's memory scales with its width, the good solver never runs
// again, and the merged result is bit-identical to the monolithic run.
//
// This example records the trajectory for the 8×8 RAM under test
// sequence 1, round-trips it through its binary encoding (as a campaign
// distributed across processes would), runs the full stuck-at universe in
// 64-fault batches, cross-checks the monolithic simulator, and finally
// shows coverage-targeted early stopping.
package main

import (
	"bytes"
	"fmt"
	"log"

	"fmossim"
	"fmossim/internal/march"
)

func main() {
	m := fmossim.RAM64()
	nw := m.Net
	seq := march.Sequence1(m)
	faults := fmossim.NodeStuckFaults(nw, fmossim.FaultOptions{})
	obs := []fmossim.NodeID{m.DataOut}

	// 1. Record the good circuit's trajectory once.
	rec := fmossim.RecordTrajectory(nw, seq, fmossim.FaultSimOptions{})
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded trajectory: %d settings, %d good work units, %d bytes encoded\n",
		rec.NumSettings(), rec.GoodWork(), buf.Len())

	// 2. Replay it from the serialized form: no good-circuit solver runs
	// from here on.
	rec2, err := fmossim.DecodeRecording(&buf)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fmossim.Campaign(nw, faults, seq, fmossim.CampaignOptions{
		Sim:       fmossim.FaultSimOptions{Observe: obs},
		BatchSize: 64,
		Shards:    4,
		Recording: rec2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d faults in %d batches of ≤64: coverage %.1f%% (%d detected, %d hard)\n",
		len(faults), res.Batches, 100*res.Coverage(), res.Run.Detected, res.Run.HardDetected)

	// 3. Cross-check the monolithic simulator: detections must agree
	// fault for fault.
	sim, err := fmossim.NewFaultSimulator(nw, faults, fmossim.FaultSimOptions{Observe: obs})
	if err != nil {
		log.Fatal(err)
	}
	mono := sim.Run(seq)
	mismatches := 0
	for fi := range faults {
		md, mok := sim.Detected(fi)
		cd, cok := res.Detected(fi)
		if mok != cok || (mok && md != cd) {
			mismatches++
		}
	}
	fmt.Printf("monolithic cross-check: %d detected, %d mismatches, fault work %d vs %d\n",
		mono.Detected, mismatches, mono.FaultWork, res.Run.FaultWork)

	// 4. Early stop: a 60% coverage target lets the campaign skip the
	// batches it has not started once enough faults are detected — whole
	// windows of fault sites, not the tail of the fault list.
	early, err := fmossim.Campaign(nw, faults, seq, fmossim.CampaignOptions{
		Sim:            fmossim.FaultSimOptions{Observe: obs},
		BatchSize:      32,
		Shards:         1,
		CoverageTarget: 0.60,
		Recording:      rec2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("early stop at 60%%: coverage %.1f%% after %d of %d batches (%d skipped)\n",
		100*early.Coverage(), early.BatchesRun, early.Batches, early.BatchesSkipped)
}
