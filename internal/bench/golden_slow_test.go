//go:build slow

package bench_test

import (
	"testing"

	"fmossim/internal/bench"
)

// TestScalingWorkGolden pins the size-scaling run (what benchtab -fig
// scaling reports as conc_work and good_work) to the unit: RAM256 under
// sequence 1 with the full stuck-at universe, concurrently and good-only.
// It is the paper's largest run, so it waits for -tags slow;
// TestFigureWorkGolden pins the two RAM64 figures by default.
func TestScalingWorkGolden(t *testing.T) {
	r, err := bench.Scaling(false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Large.ConcurrentWork != 85_559_301 || r.Large.GoodWork != 11_380_622 {
		t.Errorf("%s: conc_work %d, good_work %d; want 85559301 and 11380622",
			r.Large.Circuit, r.Large.ConcurrentWork, r.Large.GoodWork)
	}
}
