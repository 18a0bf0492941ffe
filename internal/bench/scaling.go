package bench

import (
	"fmt"
	"io"
	"time"

	"fmossim/internal/core"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/stats"
)

// ScalingPoint is one circuit size's totals under test sequence 1 with
// the full stuck-at universe.
type ScalingPoint struct {
	Circuit     string
	Transistors int
	Nodes       int
	Patterns    int
	Faults      int
	Detected    int

	GoodWork       int64 // good circuit alone
	ConcurrentWork int64
	SerialEstWork  int64
	ConcurrentNS   int64
}

// ScalingResult compares RAM64 and RAM256, the paper's size-scaling
// experiment: good-only and concurrent times scale by ≈9×, serial by
// ≈37×, demonstrating that concurrent fault simulation grows as circuit
// size × patterns (with faults ∝ size), while serial grows as size ×
// patterns × faults.
type ScalingResult struct {
	Small, Large ScalingPoint

	GoodFactor   float64 // paper: ×9
	ConcFactor   float64 // paper: ×9
	SerialFactor float64 // paper: ×37
}

// Scaling runs the size-scaling experiment. With quick=true, 4×4 and 8×8
// instances substitute for the paper's 8×8 and 16×16 (used by unit tests
// to keep runtimes small; the scaling exponents are size-invariant).
func Scaling(quick bool) (*ScalingResult, error) {
	small, large := ram.RAM64(), ram.RAM256()
	if quick {
		small = ram.New(ram.Config{Rows: 4, Cols: 4})
		large = ram.New(ram.Config{Rows: 8, Cols: 8})
	}
	sp, err := scalingPoint(small)
	if err != nil {
		return nil, err
	}
	lp, err := scalingPoint(large)
	if err != nil {
		return nil, err
	}
	return &ScalingResult{
		Small:        *sp,
		Large:        *lp,
		GoodFactor:   stats.Ratio(float64(lp.GoodWork), float64(sp.GoodWork)),
		ConcFactor:   stats.Ratio(float64(lp.ConcurrentWork), float64(sp.ConcurrentWork)),
		SerialFactor: stats.Ratio(float64(lp.SerialEstWork), float64(sp.SerialEstWork)),
	}, nil
}

func scalingPoint(m *ram.RAM) (*ScalingPoint, error) {
	seq := march.Sequence1(m)
	faults := NodeStuckOnly(m)

	goodRes, err := goodOnly(m, seq)
	if err != nil {
		return nil, err
	}
	sim, err := core.New(m.Net, faults, core.Options{Observe: []netlist.NodeID{m.DataOut}})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res := sim.Run(seq)
	concNS := time.Since(t0).Nanoseconds()

	st := m.Net.Stats()
	return &ScalingPoint{
		Circuit:        fmt.Sprintf("RAM%d", m.Conf.Bits()),
		Transistors:    st.Transistors - len(m.BitlineShorts),
		Nodes:          st.Nodes,
		Patterns:       len(seq.Patterns),
		Faults:         len(faults),
		Detected:       res.Detected,
		GoodWork:       goodRes.GoodWork,
		ConcurrentWork: res.TotalWork(),
		SerialEstWork:  serialEstimate(sim, len(faults), goodRes) + goodRes.GoodWork,
		ConcurrentNS:   concNS,
	}, nil
}

// Summarize writes the scaling table next to the paper's factors.
func (r *ScalingResult) Summarize(w io.Writer) {
	row := func(p ScalingPoint) {
		fmt.Fprintf(w, "  %-8s %6d trans %5d nodes %5d patterns %5d faults (%d detected)\n",
			p.Circuit, p.Transistors, p.Nodes, p.Patterns, p.Faults, p.Detected)
		fmt.Fprintf(w, "           good %d, concurrent %d, serial-est %d work units\n",
			p.GoodWork, p.ConcurrentWork, p.SerialEstWork)
	}
	row(r.Small)
	row(r.Large)
	fmt.Fprintf(w, "  %-28s %10s %10s\n", "scaling factor", "measured", "paper")
	fmt.Fprintf(w, "  %-28s %10.1f %10.0f\n", "good circuit alone", r.GoodFactor, 9.0)
	fmt.Fprintf(w, "  %-28s %10.1f %10.0f\n", "concurrent", r.ConcFactor, 9.0)
	fmt.Fprintf(w, "  %-28s %10.1f %10.0f\n", "serial (estimated)", r.SerialFactor, 37.0)
}
