package ram_test

import (
	"fmt"
	"slices"
	"testing"

	"fmossim/internal/bench"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

const (
	L = logic.Lo
	H = logic.Hi
	X = logic.X
)

func run(sim *switchsim.Simulator, p switchsim.Pattern) {
	sim.RunPattern(&p)
}

func TestRAMWriteReadSingleCell(t *testing.T) {
	m := ram.RAM64()
	sim := switchsim.NewSimulator(m.Net)
	sim.Init()

	addr := m.Address(3, 5)
	run(sim, m.Write(addr, H))
	if got := sim.Circuit.Value(m.Store[3][5]); got != H {
		t.Fatalf("cell (3,5) after write-1 = %s, want 1", got)
	}
	run(sim, m.Read(addr))
	if got := sim.Circuit.Value(m.DataOut); got != H {
		t.Fatalf("dout after read = %s, want 1", got)
	}
	run(sim, m.Write(addr, L))
	run(sim, m.Read(addr))
	if got := sim.Circuit.Value(m.DataOut); got != L {
		t.Fatalf("dout after write-0/read = %s, want 0", got)
	}
}

func TestRAMWritePreservesNeighbors(t *testing.T) {
	m := ram.RAM64()
	sim := switchsim.NewSimulator(m.Net)
	sim.Init()

	// Fill row 2 with a pattern, then rewrite one column: the refresh
	// path must preserve every other column.
	for c := 0; c < 8; c++ {
		run(sim, m.Write(m.Address(2, c), logic.Value(c%2)))
	}
	run(sim, m.Write(m.Address(2, 4), H))
	for c := 0; c < 8; c++ {
		want := logic.Value(c % 2)
		if c == 4 {
			want = H
		}
		if got := sim.Circuit.Value(m.Store[2][c]); got != want {
			t.Errorf("cell (2,%d) = %s, want %s", c, got, want)
		}
	}
	// And a write in another row must not touch row 2 at all.
	run(sim, m.Write(m.Address(5, 4), L))
	for c := 0; c < 8; c++ {
		want := logic.Value(c % 2)
		if c == 4 {
			want = H
		}
		if got := sim.Circuit.Value(m.Store[2][c]); got != want {
			t.Errorf("cell (2,%d) after far write = %s, want %s", c, got, want)
		}
	}
}

func TestRAMReadNondestructive(t *testing.T) {
	m := ram.RAM64()
	sim := switchsim.NewSimulator(m.Net)
	sim.Init()

	addr := m.Address(7, 0)
	run(sim, m.Write(addr, H))
	for i := 0; i < 5; i++ {
		run(sim, m.Read(addr))
		if got := sim.Circuit.Value(m.DataOut); got != H {
			t.Fatalf("read %d = %s, want 1", i, got)
		}
	}
	if got := sim.Circuit.Value(m.Store[7][0]); got != H {
		t.Fatalf("cell lost its charge after reads: %s", got)
	}
}

func TestRAMRetentionAcrossOtherAccesses(t *testing.T) {
	m := ram.RAM64()
	sim := switchsim.NewSimulator(m.Net)
	sim.Init()

	run(sim, m.Write(m.Address(1, 1), H))
	run(sim, m.Write(m.Address(6, 6), L))
	// Hammer other cells.
	for i := 0; i < 8; i++ {
		run(sim, m.Write(m.Address(4, i), logic.Value(i%2)))
		run(sim, m.Read(m.Address(4, i)))
	}
	run(sim, m.Read(m.Address(1, 1)))
	if got := sim.Circuit.Value(m.DataOut); got != H {
		t.Errorf("cell (1,1) read = %s, want 1", got)
	}
	run(sim, m.Read(m.Address(6, 6)))
	if got := sim.Circuit.Value(m.DataOut); got != L {
		t.Errorf("cell (6,6) read = %s, want 0", got)
	}
}

func TestRAMFullArraySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full-array sweep is slow in -short mode")
	}
	m := ram.RAM64()
	sim := switchsim.NewSimulator(m.Net)
	sim.Init()

	// Checkerboard write then read back.
	val := func(a int) logic.Value { return logic.Value((a ^ (a >> 3)) & 1) }
	for a := 0; a < 64; a++ {
		run(sim, m.Write(a, val(a)))
	}
	for a := 0; a < 64; a++ {
		run(sim, m.Read(a))
		if got := sim.Circuit.Value(m.DataOut); got != val(a) {
			t.Errorf("addr %d: dout = %s, want %s", a, got, val(a))
		}
	}
}

func TestRAMUninitializedReadsX(t *testing.T) {
	m := ram.RAM64()
	sim := switchsim.NewSimulator(m.Net)
	sim.Init()
	run(sim, m.Read(m.Address(0, 0)))
	if got := sim.Circuit.Value(m.DataOut); got != X {
		t.Errorf("reading an uninitialized cell: dout = %s, want X", got)
	}
}

func TestRAMStats(t *testing.T) {
	// The generated instances must stay closely comparable to the
	// paper's circuits (RAM64: 378 transistors, 229 nodes; RAM256: 1148
	// transistors, 695 nodes). Fault transistors (bridge candidates) are
	// excluded from the comparison since the paper adds them per
	// experiment. These exact values are pinned as a regression guard;
	// update them deliberately if the generator changes.
	m64 := ram.RAM64()
	st := m64.Net.Stats()
	nShorts := len(m64.BitlineShorts)
	if got := st.Transistors - nShorts; got != 398 {
		t.Errorf("RAM64 core transistors = %d (paper: 378); update pin if intentional", got)
	}
	if st.Nodes != 231 {
		t.Errorf("RAM64 nodes = %d (paper: 229); update pin if intentional", st.Nodes)
	}

	m256 := ram.RAM256()
	st = m256.Net.Stats()
	nShorts = len(m256.BitlineShorts)
	if got := st.Transistors - nShorts; got != 1174 {
		t.Errorf("RAM256 core transistors = %d (paper: 1148); update pin if intentional", got)
	}
	if st.Nodes != 685 {
		t.Errorf("RAM256 nodes = %d (paper: 695); update pin if intentional", st.Nodes)
	}
	if len(netlist.Lint(m64.Net)) > 0 {
		for _, is := range netlist.Lint(m64.Net) {
			t.Logf("lint: %s", is)
		}
	}
}

func TestPaperFaultsComposition(t *testing.T) {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	fs := m.PaperFaults()
	want := 2*m.Net.NumStorageNodes() + len(m.BitlineShorts)
	if len(fs) != want {
		t.Errorf("paper universe has %d faults, want %d", len(fs), want)
	}
	// The experiment harness's name for the same universe forwards here.
	if !slices.Equal(bench.PaperFaults(m), fs) {
		t.Error("bench.PaperFaults differs from RAM.PaperFaults")
	}
}

func TestRAMPatternShape(t *testing.T) {
	m := ram.RAM64()
	p := m.Write(0, H)
	if len(p.Settings) != 6 {
		t.Errorf("pattern has %d settings, want 6 (the paper's clock cycle)", len(p.Settings))
	}
	p = m.Read(63)
	if len(p.Settings) != 6 {
		t.Errorf("read pattern has %d settings, want 6", len(p.Settings))
	}
	if m.Address(7, 7) != 63 {
		t.Errorf("Address(7,7) = %d, want 63", m.Address(7, 7))
	}
}

func TestRAMBadConfigPanics(t *testing.T) {
	for _, cfg := range []ram.Config{{Rows: 1, Cols: 8}, {Rows: 8, Cols: 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			ram.New(cfg)
		}()
	}
}

func ExampleRAM() {
	m := ram.New(ram.Config{Rows: 4, Cols: 4})
	sim := switchsim.NewSimulator(m.Net)
	sim.Init()
	w := m.Write(m.Address(1, 2), logic.Hi)
	sim.RunPattern(&w)
	r := m.Read(m.Address(1, 2))
	sim.RunPattern(&r)
	fmt.Println("dout =", sim.Circuit.Value(m.DataOut))
	// Output: dout = 1
}
