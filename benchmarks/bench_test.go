package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func quickRun(t *testing.T, w *workload, trace, corrupt bool) *report {
	t.Helper()
	rep, err := run(context.Background(), config{workload: w, seed: 1, trace: trace, quick: true, corrupt: corrupt})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return rep
}

// TestManifest pins BENCHMARK.json to the harness's own declarations.
func TestManifest(t *testing.T) {
	want, err := manifest(workloads, runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the harness's declarations; regenerate it with `bash benchmarks/run.sh -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("per-layer metric %s does not say which end-to-end metric it should move", d.Name)
		}
	}
}

// TestQuickEmitsEveryMetric runs every workload's RAM64 stand-in both
// ways and checks that each run is correct and reports exactly the
// declared metrics (report.set panics on a duplicate or undeclared name).
func TestQuickEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := quickRun(t, w, trace, false)
			if !rep.Correct {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			decls := endToEnd
			if trace {
				decls = perLayer
			}
			if len(rep.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, trace, len(rep.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := rep.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not reported", w.name, trace, d.Name)
				} else if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedResultFails checks the oracle: one flipped verdict must
// count as a failed operation on a library workload and on the burst.
func TestCorruptedResultFails(t *testing.T) {
	for _, name := range []string{"ram256-seq1-mono", "ram64-jobs-burst"} {
		rep := quickRun(t, findWorkload(name), false, true)
		if rep.Correct || rep.Failed != 1 {
			t.Errorf("%s: corrupted run reported correct=%v failed=%d, want one failure", name, rep.Correct, rep.Failed)
		}
	}
}

// TestSameSeedSameCounts checks that the simulated statistics repeat
// exactly: the property that lets two commits be compared on them.
func TestSameSeedSameCounts(t *testing.T) {
	w := findWorkload("ram256-overlap-trim")
	a, b := quickRun(t, w, true, false), quickRun(t, w, true, false)
	for _, d := range perLayer {
		if d.Exact && a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
			t.Errorf("%s: %v then %v with the same seed", d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
		}
	}
	if a.Metrics["core.lanes_freed"].Value == 0 {
		t.Error("the overlap mix collapsed no lanes: class trimming is not firing on the workload built to exercise it")
	}
}

// TestTypical pins the rule behind every gated time: the lowest decile of
// the samples the clock held still under, or of all of them when fewer
// than a third were steady.
func TestTypical(t *testing.T) {
	steady := func(s float64) wall { return wall{S: s, Cal: [2]float64{0.010, 0.0101}} }
	flipped := func(s float64) wall { return wall{S: s, Cal: [2]float64{0.009, 0.011}} }
	enough := []wall{steady(1.0), steady(1.0), steady(1.0), flipped(0.5), flipped(0.5), flipped(0.5), flipped(3), flipped(3), flipped(3)}
	if got := typical(enough); got != 1.0 {
		t.Errorf("a third of the samples steady: typical = %v, want the steady samples' 1.0", got)
	}
	tooFew := append([]wall{flipped(0.5)}, enough...)
	if got := typical(tooFew); got != 0.5 {
		t.Errorf("fewer than a third steady: typical = %v, want the lowest decile of all samples, 0.5", got)
	}
}
