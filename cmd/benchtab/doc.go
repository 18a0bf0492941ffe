// Command benchtab regenerates the tables and figures of the paper's
// evaluation section. For each figure it runs the corresponding experiment
// on the generated RAM circuits, writes the per-point series as CSV, and
// prints a summary comparing the measured shape metrics with the paper's
// published numbers.
//
// Usage:
//
//	benchtab -fig 1           # Figure 1: RAM64, sequence 1 curves -> fig1.csv
//	benchtab -fig 2           # Figure 2: RAM64, sequence 2 curves -> fig2.csv
//	benchtab -fig 3           # Figure 3: RAM256 fault sweep       -> fig3.csv
//	benchtab -fig scaling     # RAM64 vs RAM256 scaling factors
//	benchtab -fig faultclass  # §5: fault-class comparison
//	benchtab -fig ablation    # fault-dropping ablation
//	benchtab -fig all         # everything
//	benchtab -out DIR         # where CSV files go (default .)
//	benchtab -quick           # smaller instances for fig 3 / scaling
//	benchtab -json            # also write machine-readable BENCH_results.json
//
// The JSON report carries each figure's headline metrics plus wall-clock
// run times, so the performance trajectory can be tracked across commits
// by CI without parsing human-oriented output. Regressions are gated
// elsewhere: benchmarks/run.sh -pair compares wall clock, allocation and
// exact counts on interleaved runs of two builds.
package main
