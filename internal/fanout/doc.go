// Package fanout is the one worker pool of the engine: Each runs a
// function over a known index set on a bounded number of goroutines and
// returns when every call has returned.
//
// It is the pool behind both of the engine's fan-outs — the activated
// circuits of one setting across a batch's fault workers
// (core.FaultBatch), and a campaign's batches across its shards
// (campaign.Execute), whether the shards run in this process or, for a
// distributed campaign, on the coordinator's workers (internal/distrib). Neither result may depend on scheduling, so Each
// writes nothing back itself: fn writes only to slots owned by its index
// i or its worker w, and a caller that needs an order (ascending circuit
// id, for the divergence-record write-back) imposes it after Each returns.
package fanout
