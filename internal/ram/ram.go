// RAM circuit generator: cells, decoders, bit-line periphery, and the
// clocked pattern helpers. Package documentation lives in doc.go.
package ram

import (
	"fmt"

	"fmossim/internal/fault"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

// Port names.
const (
	Phi1 = "phi1" // precharge clock
	Phi2 = "phi2" // access (read) clock
	Phi3 = "phi3" // write-back clock
	WE   = "we"   // write enable
	Din  = "din"  // data in
	Dout = "dout" // data out (the single observed output)
)

// Config sizes a RAM instance. Rows and Cols must be powers of two.
type Config struct {
	Rows, Cols int
}

// Bits returns the capacity in bits.
func (c Config) Bits() int { return c.Rows * c.Cols }

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	if 1<<k != n {
		panic(fmt.Sprintf("ram: %d is not a power of two", n))
	}
	return k
}

// RAM is a generated memory with its port map and fault-injection hooks.
type RAM struct {
	Net  *netlist.Network
	Conf Config

	// Inputs.
	PhiOne, PhiTwo, PhiThree netlist.NodeID
	WriteEnable, DataIn      netlist.NodeID
	Addr                     []netlist.NodeID // LSB first; column bits low

	// DataOut is the single observed output node.
	DataOut netlist.NodeID

	// Store[r][c] is the storage gate node of cell (r,c); Mid[r][c] its
	// read-path intermediate node.
	Store, Mid [][]netlist.NodeID
	// ReadBit/WriteBit are the per-column bit lines (large busses).
	ReadBit, WriteBit []netlist.NodeID

	// BitlineShorts are bridge-candidate transistors between adjacent bit
	// lines (read-read, write-write, and same-column read-write pairs),
	// for the paper's "single pairs of adjacent bit lines shorted
	// together" fault class.
	BitlineShorts []netlist.TransID
}

// AddrBits returns the number of address inputs.
func (r *RAM) AddrBits() int { return len(r.Addr) }

// Address computes the address word for cell (row, col): column bits are
// the low bits.
func (r *RAM) Address(row, col int) int { return row*r.Conf.Cols + col }

// New generates a RAM instance.
func New(cfg Config) *RAM {
	if cfg.Rows < 2 || cfg.Cols < 2 {
		panic("ram: need at least 2 rows and 2 columns")
	}
	rowBits := log2(cfg.Rows)
	colBits := log2(cfg.Cols)

	// Two node sizes (ordinary, bus), two transistor strengths
	// (depletion loads, everything else) plus a third reserved for fault
	// transistors, per the paper's fault-injection construction.
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 3})
	b.DefaultStrength = 2

	m := &RAM{Conf: cfg}
	m.PhiOne = b.Input(Phi1, logic.Lo)
	m.PhiTwo = b.Input(Phi2, logic.Lo)
	m.PhiThree = b.Input(Phi3, logic.Lo)
	m.WriteEnable = b.Input(WE, logic.Lo)
	m.DataIn = b.Input(Din, logic.Lo)
	for i := 0; i < rowBits+colBits; i++ {
		m.Addr = append(m.Addr, b.Input(fmt.Sprintf("a%d", i), logic.Lo))
	}

	// Address buffers: true and complement of every address bit.
	var colT, colF, rowT, rowF []netlist.NodeID
	for i, a := range m.Addr {
		aBar := b.Node(fmt.Sprintf("ab%d", i))
		aBuf := b.Node(fmt.Sprintf("at%d", i))
		nInv(b, a, aBar, fmt.Sprintf("abuf%d.n", i))
		nInv(b, aBar, aBuf, fmt.Sprintf("abuf%d.t", i))
		if i < colBits {
			colT, colF = append(colT, aBuf), append(colF, aBar)
		} else {
			rowT, rowF = append(rowT, aBuf), append(rowF, aBar)
		}
	}

	// NOR decoders with depletion loads: one-hot row and column selects.
	rowSel := norDecoder(b, rowT, rowF, "rdec")
	colSel := norDecoder(b, colT, colF, "cdec")

	// Control logic: φ2 complement for the read-row pulldowns; write
	// enable wEn = φ3 ∧ WE (NAND + inverter), with the NAND output
	// doubling as wEn's complement.
	phi2Bar := b.Node("phi2b")
	nInv(b, m.PhiTwo, phi2Bar, "cphi2b")
	weBar := b.Node("web")
	nInv(b, m.WriteEnable, weBar, "cweb")
	wEnBar := b.Node("wenb")
	nNand2(b, m.PhiThree, m.WriteEnable, wEnBar, "cwen")
	wEn := b.Node("wen")
	nInv(b, wEnBar, wEn, "cweninv")
	// Read enable ren = φ2 ∧ ¬WE: the output latch captures only on read
	// cycles, as in real one-bit-wide parts — during a write the data
	// pin holds the previous read value.
	rEnBar := b.Node("renb")
	nNand2(b, m.PhiTwo, weBar, rEnBar, "cren")
	rEn := b.Node("ren")
	nInv(b, rEnBar, rEn, "creninv")

	// Row gating: dynamic row lines through pass transistors, with
	// pulldowns restoring them low when the phase ends.
	rrow := make([]netlist.NodeID, cfg.Rows)
	wrow := make([]netlist.NodeID, cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		rrow[i] = b.Node(fmt.Sprintf("rrow%d", i))
		b.N(m.PhiTwo, rowSel[i], rrow[i], fmt.Sprintf("rgate%d", i))
		b.N(phi2Bar, rrow[i], b.Gnd, fmt.Sprintf("rgnd%d", i))
		wrow[i] = b.Node(fmt.Sprintf("wrow%d", i))
		b.N(wEn, rowSel[i], wrow[i], fmt.Sprintf("wgate%d", i))
		b.N(wEnBar, wrow[i], b.Gnd, fmt.Sprintf("wgnd%d", i))
	}

	// Data-in buffer driving the write-data bus.
	dinBar := b.Node("dinb")
	nInv(b, m.DataIn, dinBar, "dbuf.n")
	wdata := b.SizedNode("wdata", 2)
	nInv(b, dinBar, wdata, "dbuf.t")
	rdata := b.SizedNode("rdata", 2)
	b.N(m.PhiOne, b.Vdd, rdata, "pc.rdata")

	// Columns: precharged read bit line, refresh inverter, write bit
	// line multiplexer, read mux onto the read-data bus.
	m.ReadBit = make([]netlist.NodeID, cfg.Cols)
	m.WriteBit = make([]netlist.NodeID, cfg.Cols)
	for j := 0; j < cfg.Cols; j++ {
		rbit := b.SizedNode(fmt.Sprintf("rbit%d", j), 2)
		wbit := b.SizedNode(fmt.Sprintf("wbit%d", j), 2)
		m.ReadBit[j], m.WriteBit[j] = rbit, wbit
		b.N(m.PhiOne, b.Vdd, rbit, fmt.Sprintf("pc%d", j))
		cselBar := b.Node(fmt.Sprintf("cselb%d", j))
		nInv(b, colSel[j], cselBar, fmt.Sprintf("cselinv%d", j))
		winv := b.Node(fmt.Sprintf("winv%d", j))
		nInv(b, rbit, winv, fmt.Sprintf("wrefresh%d", j))
		b.N(colSel[j], wdata, wbit, fmt.Sprintf("wmuxd%d", j))
		b.N(cselBar, winv, wbit, fmt.Sprintf("wmuxr%d", j))
		b.N(colSel[j], rbit, rdata, fmt.Sprintf("rmux%d", j))
	}

	// The cell array: 3T dynamic cells.
	m.Store = make([][]netlist.NodeID, cfg.Rows)
	m.Mid = make([][]netlist.NodeID, cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		m.Store[i] = make([]netlist.NodeID, cfg.Cols)
		m.Mid[i] = make([]netlist.NodeID, cfg.Cols)
		for j := 0; j < cfg.Cols; j++ {
			store := b.Node(fmt.Sprintf("cell%d_%d.s", i, j))
			mid := b.Node(fmt.Sprintf("cell%d_%d.m", i, j))
			m.Store[i][j], m.Mid[i][j] = store, mid
			b.N(wrow[i], m.WriteBit[j], store, fmt.Sprintf("cell%d_%d.w", i, j))
			b.N(store, mid, b.Gnd, fmt.Sprintf("cell%d_%d.g", i, j))
			b.N(rrow[i], m.ReadBit[j], mid, fmt.Sprintf("cell%d_%d.r", i, j))
		}
	}

	// Output stage: dynamic latch on the read-data bus, captured on read
	// cycles only and restored by an inverter (the read path is
	// inverting, so dout equals the cell).
	sense := b.Node("sense")
	b.N(rEn, rdata, sense, "olat.pass")
	dout := b.Node(Dout)
	nInv(b, sense, dout, "olat.inv")
	m.DataOut = dout

	// Bridge candidates between adjacent bit lines.
	for j := 0; j+1 < cfg.Cols; j++ {
		m.BitlineShorts = append(m.BitlineShorts,
			b.BridgeCandidate(m.ReadBit[j], m.ReadBit[j+1], fmt.Sprintf("short.r%d_%d", j, j+1)),
			b.BridgeCandidate(m.WriteBit[j], m.WriteBit[j+1], fmt.Sprintf("short.w%d_%d", j, j+1)))
	}
	for j := 0; j < cfg.Cols; j++ {
		m.BitlineShorts = append(m.BitlineShorts,
			b.BridgeCandidate(m.ReadBit[j], m.WriteBit[j], fmt.Sprintf("short.rw%d", j)))
	}

	m.Net = b.Finalize()
	return m
}

// nInv builds a depletion-load nMOS inverter (duplicated from the gates
// package to keep ram self-contained for transistor accounting).
func nInv(b *netlist.Builder, in, out netlist.NodeID, label string) {
	b.StrengthTrans(logic.DType, 1, out, b.Vdd, out, label+".l")
	b.N(in, out, b.Gnd, label+".pd")
}

// nNand2 builds a two-input depletion-load NAND.
func nNand2(b *netlist.Builder, x, y, out netlist.NodeID, label string) {
	b.StrengthTrans(logic.DType, 1, out, b.Vdd, out, label+".l")
	s := b.Node(label + ".s")
	b.N(x, out, s, label+".pd0")
	b.N(y, s, b.Gnd, label+".pd1")
}

// norDecoder builds a one-hot NOR decoder over the given true/complement
// address lines.
func norDecoder(b *netlist.Builder, at, af []netlist.NodeID, prefix string) []netlist.NodeID {
	n := 1 << len(at)
	outs := make([]netlist.NodeID, n)
	for i := 0; i < n; i++ {
		out := b.Node(fmt.Sprintf("%s%d", prefix, i))
		outs[i] = out
		b.StrengthTrans(logic.DType, 1, out, b.Vdd, out, fmt.Sprintf("%s%d.l", prefix, i))
		for k := range at {
			in := at[k]
			if (i>>k)&1 == 1 {
				in = af[k]
			}
			b.N(in, out, b.Gnd, fmt.Sprintf("%s%d.pd%d", prefix, i, k))
		}
	}
	return outs
}

// RAM64 builds the 8×8 (64-bit) instance corresponding to the paper's
// RAM64.
func RAM64() *RAM { return New(Config{Rows: 8, Cols: 8}) }

// RAM256 builds the 16×16 (256-bit) instance corresponding to the paper's
// RAM256.
func RAM256() *RAM { return New(Config{Rows: 16, Cols: 16}) }

// PaperFaults returns the paper's fault universe for the instance: every
// single storage-node stuck-at-0 and stuck-at-1 fault plus every
// adjacent-bit-line short. For RAM64 this yields a universe of the same
// order as the paper's 428-fault set; for RAM256 comparable to the
// paper's "all 1382 possible single stuck-at and single bus short
// faults".
func (r *RAM) PaperFaults() []fault.Fault {
	fs := fault.NodeStuckFaults(r.Net, fault.Options{})
	return append(fs, fault.BridgeFaults(r.BitlineShorts)...)
}

// addrSetting fills pairs with the address bits of addr.
func (r *RAM) addrSetting(addr int, pairs map[string]logic.Value) {
	for i := range r.Addr {
		pairs[fmt.Sprintf("a%d", i)] = logic.Value((addr >> i) & 1)
	}
}

// Cycle builds the six-setting pattern of one clock cycle: a read of addr
// when we is 0, a write of din to addr when we is 1.
func (r *RAM) Cycle(name string, addr int, we, din logic.Value) switchsim.Pattern {
	setup := map[string]logic.Value{
		Phi1: logic.Hi, Phi2: logic.Lo, Phi3: logic.Lo,
		WE: we, Din: din,
	}
	r.addrSetting(addr, setup)
	return switchsim.Pattern{
		Name: name,
		Settings: []switchsim.Setting{
			switchsim.MustVector(r.Net, setup),
			switchsim.MustVector(r.Net, map[string]logic.Value{Phi1: logic.Lo}),
			switchsim.MustVector(r.Net, map[string]logic.Value{Phi2: logic.Hi}),
			switchsim.MustVector(r.Net, map[string]logic.Value{Phi2: logic.Lo}),
			switchsim.MustVector(r.Net, map[string]logic.Value{Phi3: logic.Hi}),
			switchsim.MustVector(r.Net, map[string]logic.Value{Phi3: logic.Lo}),
		},
	}
}

// Write builds a write-cycle pattern.
func (r *RAM) Write(addr int, bit logic.Value) switchsim.Pattern {
	return r.Cycle(fmt.Sprintf("w%s@%d", bit, addr), addr, logic.Hi, bit)
}

// Read builds a read-cycle pattern.
func (r *RAM) Read(addr int) switchsim.Pattern {
	return r.Cycle(fmt.Sprintf("r@%d", addr), addr, logic.Lo, logic.Lo)
}
