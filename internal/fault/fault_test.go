package fault_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fmossim/internal/fault"
	"fmossim/internal/gates"
	"fmossim/internal/logic"
	"fmossim/internal/netlist"
	"fmossim/internal/switchsim"
)

func testNet() (*netlist.Network, netlist.TransID, netlist.TransID) {
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 3})
	a := b.Input("a", logic.Lo)
	clk := b.Input("clk", logic.Lo)
	o1 := b.Node("o1")
	o2 := b.Node("o2")
	gates.NInv(b, a, o1, "i1")
	gates.DynLatch(b, clk, o1, o2, "lat", false)
	short := b.BridgeCandidate(o1, o2, "short")
	wire := b.Breakable(o2, b.Node("pad"), "wire")
	b.Finalize()
	return b.Net, short, wire
}

func TestKindStrings(t *testing.T) {
	want := map[fault.Kind]string{
		fault.NodeStuck0:       "sa0",
		fault.NodeStuck1:       "sa1",
		fault.NodeStuckX:       "sax",
		fault.TransStuckOpen:   "stuck-open",
		fault.TransStuckClosed: "stuck-closed",
		fault.Bridge:           "short",
		fault.Open:             "open",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if !fault.NodeStuck0.IsNodeFault() || fault.Bridge.IsNodeFault() {
		t.Error("IsNodeFault misclassifies")
	}
	if got := fault.Kind(200).String(); got != "Kind(200)" {
		t.Errorf("unknown Kind prints %q", got)
	}
}

func TestApplyRemoveRoundTrip(t *testing.T) {
	nw, short, _ := testNet()
	tab := switchsim.NewTables(nw)
	c := switchsim.NewCircuit(tab)
	sv := switchsim.NewSolver(tab)
	sv.Init(c)
	before := c.Snapshot()

	for _, f := range []fault.Fault{
		{Kind: fault.NodeStuck1, Node: nw.MustLookup("o1")},
		{Kind: fault.TransStuckOpen, Trans: 1},
		{Kind: fault.Bridge, Trans: short},
	} {
		f.Apply(c)
		if !c.Faulty() {
			t.Errorf("%s: circuit should be faulty after Apply", f.Describe(nw))
		}
		sv.SettleAll(c)
		f.Remove(c)
		sv.SettleAll(c)
		if c.Faulty() {
			t.Errorf("%s: circuit should be clean after Remove", f.Describe(nw))
		}
		after := c.Snapshot()
		for n := range before {
			if before[n] != after[n] {
				t.Errorf("%s: node %s = %s after remove, want %s",
					f.Describe(nw), nw.Name(netlist.NodeID(n)), after[n], before[n])
			}
		}
	}
}

func TestEnumerationCounts(t *testing.T) {
	nw, _, _ := testNet()
	nodeFaults := fault.NodeStuckFaults(nw, fault.Options{})
	if want := 2 * nw.NumStorageNodes(); len(nodeFaults) != want {
		t.Errorf("node faults: %d, want %d", len(nodeFaults), want)
	}
	transFaults := fault.TransistorStuckFaults(nw, fault.Options{})
	// The bridge candidate and breakable wire are fault carriers, not
	// targets: 5 real transistors (load, pd, pass, latch inv load+pd).
	if want := 2 * 5; len(transFaults) != want {
		t.Errorf("transistor faults: %d, want %d", len(transFaults), want)
	}
	withTies := fault.TransistorStuckFaults(nw, fault.Options{IncludeTies: true})
	if want := 2 * nw.NumTransistors(); len(withTies) != want {
		t.Errorf("transistor faults incl ties: %d, want %d", len(withTies), want)
	}
}

func TestEnumerationFilters(t *testing.T) {
	nw, _, _ := testNet()
	only1 := fault.NodeStuckFaults(nw, fault.Options{
		NodeFilter: func(n *netlist.Network, id netlist.NodeID) bool {
			return n.Name(id) == "o1"
		},
	})
	if len(only1) != 2 {
		t.Errorf("filtered node faults: %d, want 2", len(only1))
	}
	none := fault.TransistorStuckFaults(nw, fault.Options{
		TransFilter: func(*netlist.Network, netlist.TransID) bool { return false },
	})
	if len(none) != 0 {
		t.Errorf("filtered transistor faults: %d, want 0", len(none))
	}
}

func TestSampleDeterministicAndOrdered(t *testing.T) {
	nw, _, _ := testNet()
	all := fault.NodeStuckFaults(nw, fault.Options{})
	s1 := fault.Sample(all, 3, rand.New(rand.NewSource(9)))
	s2 := fault.Sample(all, 3, rand.New(rand.NewSource(9)))
	if len(s1) != 3 || len(s2) != 3 {
		t.Fatalf("sample sizes %d/%d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Error("Sample not deterministic for equal seeds")
		}
	}
	// Oversized request returns a copy of everything.
	full := fault.Sample(all, 999, rand.New(rand.NewSource(1)))
	if len(full) != len(all) {
		t.Errorf("oversized sample: %d, want %d", len(full), len(all))
	}
}

func TestSitesNeverEmptyForStorageFaults(t *testing.T) {
	nw, short, wire := testNet()
	fs := []fault.Fault{
		{Kind: fault.NodeStuck0, Node: nw.MustLookup("o1")},
		{Kind: fault.TransStuckClosed, Trans: 1},
		{Kind: fault.Bridge, Trans: short},
		{Kind: fault.Open, Trans: wire},
	}
	// AppendSites leaves what dst holds alone and appends exactly Sites,
	// sorted and without duplicates, however full dst's array is.
	prefix := []netlist.NodeID{9, 0, 9}
	for _, f := range fs {
		sites := f.Sites(nw)
		if len(sites) == 0 {
			t.Errorf("%s: empty site set", f.Describe(nw))
		}
		if !slices.IsSorted(sites) || len(slices.Compact(slices.Clone(sites))) != len(sites) {
			t.Errorf("%s: sites %v are not a sorted set", f.Describe(nw), sites)
		}
		dst := append(make([]netlist.NodeID, 0, 64), prefix...)
		if got := f.AppendSites(dst, nw); !slices.Equal(got, append(slices.Clone(prefix), sites...)) {
			t.Errorf("%s: AppendSites onto %v gives %v, want the prefix then %v", f.Describe(nw), prefix, got, sites)
		}
	}
}

func TestPinnedForcedState(t *testing.T) {
	if v, ok := (fault.Fault{Kind: fault.TransStuckOpen}).PinnedState(); !ok || v != logic.Lo {
		t.Error("stuck-open should pin Lo")
	}
	if v, ok := (fault.Fault{Kind: fault.Bridge}).PinnedState(); !ok || v != logic.Hi {
		t.Error("bridge should pin Hi")
	}
	if _, ok := (fault.Fault{Kind: fault.NodeStuck0}).PinnedState(); ok {
		t.Error("node fault has no pinned state")
	}
	if v, ok := (fault.Fault{Kind: fault.NodeStuck1}).ForcedState(); !ok || v != logic.Hi {
		t.Error("sa1 should force Hi")
	}
	if _, ok := (fault.Fault{Kind: fault.Open}).ForcedState(); ok {
		t.Error("open fault has no forced state")
	}
}

func TestListRoundTrip(t *testing.T) {
	nw, short, wire := testNet()
	fs := []fault.Fault{
		{Kind: fault.NodeStuck0, Node: nw.MustLookup("o1")},
		{Kind: fault.NodeStuck1, Node: nw.MustLookup("o2")},
		{Kind: fault.NodeStuckX, Node: nw.MustLookup("pad")},
		{Kind: fault.TransStuckOpen, Trans: 0},
		{Kind: fault.TransStuckClosed, Trans: 1},
		{Kind: fault.Bridge, Trans: short},
		{Kind: fault.Open, Trans: wire},
	}
	var buf bytes.Buffer
	if err := fault.WriteList(&buf, nw, fs); err != nil {
		t.Fatal(err)
	}
	got, err := fault.ReadList(bytes.NewReader(buf.Bytes()), nw)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(got) != len(fs) {
		t.Fatalf("round trip %d faults, want %d", len(got), len(fs))
	}
	for i := range fs {
		if got[i] != fs[i] {
			t.Errorf("fault %d: %+v != %+v", i, got[i], fs[i])
		}
	}
}

func TestListErrors(t *testing.T) {
	nw, _, _ := testNet()
	for name, src := range map[string]string{
		"unknown node": "node nope sa0\n",
		"bad kind":     "node o1 sa9\n",
		"bad trans":    "trans 999 open\n",
		"bad decl":     "frob 1\n",
		"bad arity":    "node o1\n",
		"neg trans":    "short -1\n",
	} {
		if _, err := fault.ReadList(strings.NewReader(src), nw); err == nil {
			t.Errorf("%s: expected error for %q", name, src)
		}
	}
}

func TestDescribe(t *testing.T) {
	nw, short, wire := testNet()
	f := fault.Fault{Kind: fault.NodeStuck0, Node: nw.MustLookup("o1")}
	if got := f.Describe(nw); got != "o1 sa0" {
		t.Errorf("Describe = %q", got)
	}
	f = fault.Fault{Kind: fault.Bridge, Trans: short}
	if got := f.Describe(nw); !strings.Contains(got, "short o1/o2") || !strings.Contains(got, "(short)") {
		t.Errorf("bridge Describe = %q", got)
	}
	f = fault.Fault{Kind: fault.Open, Trans: wire}
	if got := f.Describe(nw); !strings.Contains(got, "open o2/pad") || !strings.Contains(got, "(wire)") {
		t.Errorf("open Describe = %q", got)
	}
	// Transistor stuck faults use the plain "label kind" form.
	f = fault.Fault{Kind: fault.TransStuckOpen, Trans: short}
	if got := f.Describe(nw); !strings.Contains(got, "stuck-open") {
		t.Errorf("stuck-open Describe = %q", got)
	}
}

// TestDescribeUnlabeledTransistor covers the t<N> fallback for fault
// transistors built without a label.
func TestDescribeUnlabeledTransistor(t *testing.T) {
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 3})
	a := b.Input("a", logic.Lo)
	o1 := b.Node("o1")
	o2 := b.Node("o2")
	gates.NInv(b, a, o1, "i1")
	gates.NInv(b, a, o2, "i2")
	short := b.BridgeCandidate(o1, o2, "")
	nw := b.Finalize()

	f := fault.Fault{Kind: fault.Bridge, Trans: short}
	want := fmt.Sprintf("short o1/o2 (t%d)", short)
	if got := f.Describe(nw); got != want {
		t.Errorf("unlabeled bridge Describe = %q, want %q", got, want)
	}
	f = fault.Fault{Kind: fault.Open, Trans: short}
	if got := f.Describe(nw); !strings.HasPrefix(got, "open o1/o2") {
		t.Errorf("unlabeled open Describe = %q", got)
	}
}
