package core

import (
	"slices"
	"testing"

	"fmossim/internal/fault"
	"fmossim/internal/gates"
	"fmossim/internal/logic"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/switchsim"
)

// wideUniverse is the paper universe and more: stuck-at faults on every
// storage node AND every input node, every third transistor stuck open and
// stuck closed, and every bit-line short.
func wideUniverse(m *ram.RAM) []fault.Fault {
	fs := fault.NodeStuckFaults(m.Net, fault.Options{})
	for _, in := range m.Net.Inputs() {
		fs = append(fs, fault.Fault{Kind: fault.NodeStuck0, Node: in}, fault.Fault{Kind: fault.NodeStuck1, Node: in})
	}
	for i, f := range fault.TransistorStuckFaults(m.Net, fault.Options{}) {
		if i%6 < 2 {
			fs = append(fs, f)
		}
	}
	return append(fs, fault.BridgeFaults(m.BitlineShorts)...)
}

// lockstep drives two batches over the same recording setting by setting
// and calls check after every step and observation.
func lockstep(t *testing.T, rec *switchsim.Recording, seq *switchsim.Sequence, a, b *FaultBatch, check func(where string, sa, sb SettingStats)) {
	t.Helper()
	sa, sb := a.Step(&rec.Steps[0]), b.Step(&rec.Steps[0])
	check("init", sa, sb)
	si := 1
	for pi := range seq.Patterns {
		p := &seq.Patterns[pi]
		a.BeginPattern()
		b.BeginPattern()
		for i := range p.Settings {
			sa, sb = a.Step(&rec.Steps[si]), b.Step(&rec.Steps[si])
			si++
			if p.ObserveAt(i) {
				if da, db := a.Observe(), b.Observe(); !slices.Equal(da, db) {
					t.Fatalf("%s setting %d: detected %v, walking %v", p.Name, i, da, db)
				}
			}
			check(p.Name, sa, sb)
		}
		a.EndPattern()
		b.EndPattern()
	}
}

// TestFastForwardMatchesWalkBatch: RAM64 under both sequences with the wide
// universe — after every setting, a batch whose lanes ride the compiled
// good wave has the SettingStats, the summed solver work (all seven
// counters), the detections and every fault's divergence records of a
// batch that compiles nothing and walks.
func TestFastForwardMatchesWalkBatch(t *testing.T) {
	m := ram.RAM64()
	faults := wideUniverse(m)
	tab := switchsim.NewTables(m.Net)
	// Sequence 1 in full; of sequence 2 the head, where every circuit is
	// live.
	for _, tc := range []struct {
		full     *switchsim.Sequence
		patterns int
	}{
		{march.Sequence1(m), 1 << 30},
		{march.Sequence2(m), 120},
	} {
		if testing.Short() {
			tc.patterns = min(tc.patterns, 48)
		}
		seq := *tc.full
		seq.Patterns = seq.Patterns[:min(tc.patterns, len(seq.Patterns))]
		opts := Options{Observe: []netlist.NodeID{m.DataOut}, Workers: 1}
		rec := Record(m.Net, &seq, opts)
		ff, err := NewFaultBatch(tab, faults, opts)
		if err != nil {
			t.Fatal(err)
		}
		walk, _ := NewFaultBatch(tab, faults, opts)
		walk.noCompile = true
		steps := 0
		lockstep(t, rec, &seq, ff, walk, func(where string, sa, sb SettingStats) {
			steps++
			if sa != sb {
				t.Fatalf("%s %s: stats %+v, walking %+v", seq.Name, where, sa, sb)
			}
			if wa, wb := ff.faultWork(), walk.faultWork(); wa != wb {
				t.Fatalf("%s %s: work %+v, walking %+v", seq.Name, where, wa, wb)
			}
			for fi := range faults {
				ra, rb := &ff.faults[fi].recs, &walk.faults[fi].recs
				if !slices.Equal(ra.nodes, rb.nodes) || !slices.Equal(ra.vals, rb.vals) {
					t.Fatalf("%s %s: fault %s records differ", seq.Name, where, faults[fi].Describe(m.Net))
				}
			}
			if steps%97 == 0 {
				// A fast-forwarded lane must leave its scratch like any
				// other: fault dropped, pooled record bits cleared.
				if err := ff.CheckInvariants(); err != nil {
					t.Fatalf("%s %s: %v", seq.Name, where, err)
				}
			}
		})
		rs := ff.ReplayStats()
		if rs.FastForwarded == 0 || rs.Compiles == 0 || rs.Compiles > int64(ff.ix.Builds()) {
			t.Fatalf("%s: %+v over %d index builds", seq.Name, rs, ff.ix.Builds())
		}
		if ws := walk.ReplayStats(); ws.Compiles != 0 || ws.FastForwarded != 0 || ws.Lanes != rs.Lanes {
			t.Fatalf("%s: the walking batch reports %+v", seq.Name, ws)
		}
		t.Logf("%s: %d compiles for %d lanes over %d builds, %d fast-forwarded (%d rounds, %d adoptions)",
			seq.Name, rs.Compiles, rs.Lanes, ff.ix.Builds(), rs.FastForwarded, rs.RoundsSkipped, rs.AdoptionsSkipped)
	}
}

// TestCompileMirrorTracksPrev guards what the good wave is compiled from.
// There is no separate mirror to fall behind: Compile reads prev itself
// through an overlay, as every lane's materialization copies prev itself.
// prev is written in one place — delta application at the end of each step —
// so the test goes through a full RAM64 run, one worker and three, and checks
// before every step, compile included, that prev is the state an independent
// good circuit had before the step, and after it the state it has now; the
// results must be those of a batch that compiles nothing.
func TestCompileMirrorTracksPrev(t *testing.T) {
	m := ram.RAM64()
	seq := march.Sequence1(m)
	if testing.Short() {
		short := *seq
		short.Patterns = seq.Patterns[:120]
		seq = &short
	}
	faults := wideUniverse(m)
	tab := switchsim.NewTables(m.Net)
	base := Options{Observe: []netlist.NodeID{m.DataOut}}
	rec := Record(m.Net, seq, base)

	// The reference: a good circuit stepped by its own solver.
	ref := switchsim.NewCircuit(tab)
	rsv := switchsim.NewSolver(tab)
	settings := []switchsim.Setting{nil}
	for pi := range seq.Patterns {
		settings = append(settings, seq.Patterns[pi].Settings...)
	}
	advance := func(si int) {
		if si == 0 {
			rsv.Init(ref)
		} else {
			rsv.Step(ref, settings[si])
		}
	}

	for _, workers := range []int{1, 3} {
		opts := base
		opts.Workers = workers

		// The answers first: the whole run, compiled and not.
		run := func(noCompile bool) []byte {
			nb, err := NewFaultBatch(tab, faults, opts)
			if err != nil {
				t.Fatal(err)
			}
			nb.noCompile = noCompile
			br, err := nb.RunRecording(nil, rec, seq)
			if err != nil {
				t.Fatal(err)
			}
			if err := nb.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			return mustJSON(t, br)
		}
		if string(run(false)) != string(run(true)) {
			t.Fatalf("workers=%d: compiled run differs from the walking run", workers)
		}

		// Then the state every compile reads, step by step.
		stepChecked := func(b *FaultBatch, si int) {
			if !b.prev.StateEquals(ref) {
				t.Fatalf("workers=%d step %d: prev is not the pre-step good state", workers, si)
			}
			b.Step(&rec.Steps[si])
			advance(si)
			if !b.prev.StateEquals(ref) {
				t.Fatalf("workers=%d step %d: prev is not the post-step good state", workers, si)
			}
		}
		b, _ := NewFaultBatch(tab, faults, opts)
		ref.Reset()
		stepChecked(b, 0)
		si := 1
		for pi := range seq.Patterns {
			p := &seq.Patterns[pi]
			b.BeginPattern()
			for i := range p.Settings {
				stepChecked(b, si)
				si++
				if p.ObserveAt(i) {
					b.Observe()
				}
			}
			b.EndPattern()
		}
		if b.ReplayStats().Compiles == 0 {
			t.Fatalf("workers=%d: nothing was compiled", workers)
		}
	}
}

// ringNet is an enabled three-inverter ring: it oscillates while en is
// high and rests while it is low.
func ringNet() *netlist.Network {
	b := netlist.NewBuilder(logic.Scale{Sizes: 2, Strengths: 2})
	en := b.Input("en", logic.Lo)
	n0, n1, n2 := b.Node("n0"), b.Node("n1"), b.Node("n2")
	gates.NNand(b, n0, "g0", en, n2)
	gates.NInv(b, n0, n1, "g1")
	gates.NInv(b, n1, n2, "g2")
	return b.Finalize()
}

// TestFastForwardOscillatingStepCompilesNothing: a step whose good settle
// oscillated has no trajectory; its lanes settle in full, and neither an
// index nor a wave is built for it.
func TestFastForwardOscillatingStepCompilesNothing(t *testing.T) {
	nw := ringNet()
	faults := fault.NodeStuckFaults(nw, fault.Options{})
	opts := Options{Observe: []netlist.NodeID{nw.MustLookup("n2")}, Workers: 1, Drop: NeverDrop}
	s, err := New(nw, faults, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := s.batch
	en := func(v logic.Value) switchsim.Setting {
		return switchsim.MustVector(nw, map[string]logic.Value{"en": v})
	}
	s.StepSetting(en(logic.Lo))
	builds, compiles := b.ix.Builds(), b.ReplayStats().Compiles
	st := s.StepSetting(en(logic.Hi))
	if st.ScalarFallbacks == 0 || st.LanesReplayed != 0 {
		t.Fatalf("the ring did not oscillate: %+v", st)
	}
	if b.ix.Builds() != builds || b.ReplayStats().Compiles != compiles {
		t.Fatalf("an oscillating step built %d indexes and compiled %d waves", b.ix.Builds()-builds, b.ReplayStats().Compiles-compiles)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
