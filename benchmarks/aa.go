package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// childArgs is the driver's own command line for one run.
func childArgs(workload string, seed int64, seconds float64, trace bool) []string {
	t := "0"
	if trace {
		t = "1"
	}
	return []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t}
}

// runChild runs one harness process to its end and parses the result
// line, the last line of its standard output. Everything the child prints
// is copied to echo when that is non-nil.
func runChild(ctx context.Context, binary string, args []string, echo io.Writer) (map[string]metric, error) {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, binary, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	if echo != nil {
		echo.Write(out.Bytes())
	}
	if runErr != nil {
		return nil, runErr
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect results")
	}
	return res.Metrics, nil
}

func selected(name string) ([]*workload, error) {
	if name == "" {
		return workloads, nil
	}
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []*workload{w}, nil
}

// worse returns by how much b is worse than a, as a share of a, in the
// metric's own direction (negative: b is better).
func worse(d metricDecl, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// runSets runs the untraced benchmark in `sets` sets of `seeds` runs per
// workload, all of the same code, and prints for every end-to-end metric
// and workload each set's median and spread and the gap between the first
// and last set's medians, judged against the metric's bound: the
// acceptance check of the benchmark itself, and the noise floor any later
// comparison has to clear.
func runSets(ctx context.Context, sets int, name string, seed int64, seconds float64, seeds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	wls, err := selected(name)
	if err != nil {
		return err
	}
	// values[workload][metric][set] holds the set's runs.
	values := map[string]map[string][][]float64{}
	for set := 0; set < sets; set++ {
		for _, w := range wls {
			for k := 0; k < seeds; k++ {
				m, err := runChild(ctx, self, childArgs(w.name, seed+int64(k), seconds, false), nil)
				if err != nil {
					return fmt.Errorf("set %d, %s, seed %d: %w", set+1, w.name, seed+int64(k), err)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d: grade_wall_s %.4f\n", set+1, w.name, seed+int64(k), m["grade_wall_s"].Value)
				if values[w.name] == nil {
					values[w.name] = map[string][][]float64{}
				}
				for _, d := range endToEnd {
					per := values[w.name][d.Name]
					if per == nil {
						per = make([][]float64, sets)
					}
					per[set] = append(per[set], m[d.Name].Value)
					values[w.name][d.Name] = per
				}
			}
		}
	}
	fmt.Printf("%-22s %-20s %5s  %s\n", "workload", "metric", "bound", "per set: median (spread)   gap first->last   verdict")
	for _, w := range wls {
		for _, d := range endToEnd {
			per := values[w.name][d.Name]
			fmt.Printf("%-22s %-20s %5.2f ", w.name, d.Name, d.Bound)
			verdict := "PASS"
			for _, xs := range per {
				fmt.Printf(" %12.5g (%5.1f%%)", median(xs), 100*spread(xs))
				// setup_s is gated on the gap alone, as the driver does.
				if d.Name != "setup_s" && spread(xs) > d.Bound {
					verdict = "UNRESOLVED"
				}
			}
			gap := worse(d, median(per[0]), median(per[len(per)-1]))
			if gap > d.Bound {
				verdict = "UNRESOLVED"
			}
			fmt.Printf("  gap %+6.1f%%  %s\n", 100*gap, verdict)
		}
	}
	return nil
}

// runPairs compares this binary (the change) with another (the parent)
// on interleaved pairs of runs, alternating which side goes first, and
// reports per end-to-end metric and workload each side's median and
// quartiles, the pairs the change won, and two verdicts: whether the
// change is within the bound of the parent, and whether it may claim a
// gain (it wins nine tenths of the pairs and the medians differ by more
// than the parent's own quartile distance).
func runPairs(ctx context.Context, parent, name string, seed int64, seconds float64, pairs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	wls, err := selected(name)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s %-20s %s\n", "workload", "metric", "parent q1/median/q3   change q1/median/q3   wins   regression   gain")
	for _, w := range wls {
		sides := [2]map[string][]float64{{}, {}} // parent, change
		for k := 0; k < pairs; k++ {
			order := [2]int{k % 2, 1 - k%2}
			for _, side := range order {
				binary := parent
				if side == 1 {
					binary = self
				}
				m, err := runChild(ctx, binary, childArgs(w.name, seed+int64(k), seconds, false), nil)
				if err != nil {
					return fmt.Errorf("%s, pair %d, %s: %w", w.name, k+1, binary, err)
				}
				for _, d := range endToEnd {
					sides[side][d.Name] = append(sides[side][d.Name], m[d.Name].Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sides[0][d.Name], sides[1][d.Name]
			wins, decided := 0, 0
			for i := range a {
				if a[i] != b[i] {
					decided++
					if worse(d, a[i], b[i]) < 0 {
						wins++
					}
				}
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			regression := "within bound"
			switch {
			case spread(a) > d.Bound || spread(b) > d.Bound:
				regression = "UNRESOLVED"
			case worse(d, amed, bmed) > d.Bound:
				regression = "REGRESSED"
			}
			gain := "no"
			if pairs >= 10 && 10*wins >= 9*pairs && worse(d, amed, bmed) < 0 && math.Abs(amed-bmed) > aq3-aq1 {
				gain = "yes"
			}
			fmt.Printf("%-22s %-20s %.5g/%.5g/%.5g   %.5g/%.5g/%.5g   %d/%d of %d   %s   %s\n",
				w.name, d.Name, aq1, amed, aq3, bq1, bmed, bq3, wins, decided, pairs, regression, gain)
		}
	}
	return nil
}
