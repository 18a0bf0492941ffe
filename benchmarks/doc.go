// Command benchmarks is the repository's benchmark: five fault-grading
// workloads timed end to end through the entry points a user calls
// (core.New, campaign.Run, distrib.Run, the fmossimd job API), each
// grading checked against a reference computed by a different path, plus
// a separate traced pass that times every layer's public functions from
// outside (switchsim → core → campaign → server → distrib).
//
// It is its own module (fmossim/benchmarks, replacing fmossim with the
// parent directory) so that it builds from BENCHMARK.json's command with
// nothing but the files under benchmarks/ and the repository's sources:
//
//	bash benchmarks/run.sh --workload ram256-seq1-mono --seed 1 --seconds 20 --trace 0
//	bash benchmarks/run.sh --workload ram256-seq1-mono --trace 1
//	bash benchmarks/run.sh                      # every workload, untraced
//	bash benchmarks/run.sh -aa 2 -seeds 10      # two sets of ten seeds, spread and gap per metric
//
// All times are host time, corrected for the host's changing clock by a
// calibration loop timed around every measurement (calib.go); the
// simulated statistics (detections, work units) are the correctness
// oracle, never the score. This is the only code in the tree that reads
// the wall clock for anything but the documented GoodNS/FaultNS fields,
// and it lives outside the packages the fmossimvet analyzers guard. See
// README.md for what each workload and metric is for.
package main
