package justify

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/logic"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/retime"
	"mcretiming/internal/xc4000"
)

// flowSolver runs steps 1–5 of the retiming flow on a circuit, as the core
// pipeline does: mc-graph, bounds, area graph, then the minimum-area
// retiming at the minimum period. tighten applies a relocation's conflicts
// the way the pipeline's §5.2 retry does.
type flowSolver struct {
	m      *mcgraph.MC
	g      *graph.Graph
	bounds *graph.Bounds
	pool   *graph.CutPool
	lad    *graph.ProbeLadder
}

func newFlowSolver(tb testing.TB, c *netlist.Circuit) *flowSolver {
	tb.Helper()
	m, err := mcgraph.Build(c)
	if err != nil {
		tb.Fatal(err)
	}
	g, bounds, err := m.AreaGraph(context.Background(), m.ComputeBounds())
	if err != nil {
		tb.Fatal(err)
	}
	return &flowSolver{m: m, g: g, bounds: bounds, pool: &graph.CutPool{}, lad: graph.NewProbeLadder()}
}

func (f *flowSolver) retiming(tb testing.TB) []int32 {
	tb.Helper()
	ctx := context.Background()
	phi, _, err := f.g.MinPeriodLazy(ctx, f.bounds, f.pool, f.lad)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := retime.MinAreaLazy(ctx, f.g, phi, f.bounds, f.pool, retime.Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// tighten caps r_max at every conflict's achieved steps and reports
// whether err was a justification conflict at all.
func (f *flowSolver) tighten(err error) bool {
	var je *mcgraph.ErrJustify
	if !errors.As(err, &je) {
		return false
	}
	for _, cf := range je.Conflicts {
		if cf.Achieved < f.bounds.Max[cf.V] {
			f.bounds.Max[cf.V] = cf.Achieved
		}
	}
	return true
}

// mappedProfile returns Table-2 circuit i mapped as the flow maps it.
func mappedProfile(tb testing.TB, i int) *netlist.Circuit {
	tb.Helper()
	c, err := gen.Circuit(i)
	if err != nil {
		tb.Fatal(err)
	}
	mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c))
	if err != nil {
		tb.Fatal(err)
	}
	return mapped
}

// relocateBoth implements r on two clones of m, one with the production
// justifier and one with the legacy one, and fails t on any difference in
// the error, the statistics or the edge state Relocate leaves behind. It
// returns the relocation error and the production justifier.
func relocateBoth(t *testing.T, m *mcgraph.MC, r []int32, setup func(j *Justifier)) (*Justifier, error) {
	t.Helper()
	got, want := m.Clone(), m.Clone()
	j, l := New(got), newLegacy(want)
	setup(j)
	l.Engine, l.BDDNodes, l.SATConflicts = j.Engine, j.BDDNodes, j.SATConflicts
	gotStats, gotErr := got.Relocate(r, j)
	wantStats, wantErr := want.Relocate(r, l)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Relocate error %v, legacy %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotStats, wantStats) || j.Stats != l.Stats {
		t.Fatalf("stats %+v %+v, legacy %+v %+v", gotStats, j.Stats, wantStats, l.Stats)
	}
	if !reflect.DeepEqual(got.Edges, want.Edges) {
		for i := range got.Edges {
			if !reflect.DeepEqual(got.Edges[i], want.Edges[i]) {
				t.Fatalf("edge %d after Relocate: %v, legacy %v", i, got.Edges[i].Regs, want.Edges[i].Regs)
			}
		}
	}
	return j, gotErr
}

// TestRelocateMatchesLegacy runs every relocation attempt of the Table-2
// flow — the ten mapped profiles and the mapped 2600-gate random circuit,
// through their §5.2 retries — with the production and the legacy
// justifier, and requires the same errors, counts and edges.
func TestRelocateMatchesLegacy(t *testing.T) {
	circuits := map[string]*netlist.Circuit{}
	for i := 1; i <= len(gen.Profiles); i++ {
		circuits[fmt.Sprintf("C%d", i)] = mappedProfile(t, i)
	}
	rand1, err := xc4000.Map(xc4000.DecomposeSyncResets(gen.Random(1, 2600)))
	if err != nil {
		t.Fatal(err)
	}
	circuits["rand1"] = rand1
	var local, global, conflicts int
	for name, c := range circuits {
		f := newFlowSolver(t, c)
		for attempt := 0; ; attempt++ {
			if attempt == 10 {
				t.Fatalf("%s: still conflicting after %d attempts", name, attempt)
			}
			j, err := relocateBoth(t, f.m, f.retiming(t), func(*Justifier) {})
			local, global, conflicts = local+j.Stats.LocalSteps, global+j.Stats.GlobalSteps, conflicts+j.Stats.Conflicts
			if !f.tighten(err) {
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				break
			}
		}
	}
	t.Logf("table2 attempts: %d local, %d global justifications, %d conflicts", local, global, conflicts)
}

// randomResetCircuit builds a random gate network whose registers carry
// both a synchronous and an asynchronous reset with random values, so
// global justification runs on both domains.
func randomResetCircuit(rng *rand.Rand) *netlist.Circuit {
	c := netlist.New("rnd2")
	clk := c.AddInput("clk")
	srst := c.AddInput("srst")
	arst := c.AddInput("arst")
	pool := []netlist.SignalID{c.AddInput("a"), c.AddInput("b"), c.AddInput("c")}
	types := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand, netlist.Nor, netlist.Xor, netlist.Not}
	for i := 0; i < 16; i++ {
		gt := types[rng.Intn(len(types))]
		n := 2
		if gt == netlist.Not {
			n = 1
		}
		in := make([]netlist.SignalID, n)
		for k := range in {
			in[k] = pool[rng.Intn(len(pool))]
		}
		_, o := c.AddGate("", gt, in, 100)
		pool = append(pool, o)
		if rng.Intn(2) == 0 {
			r, q := syncReg(c, "", o, clk, srst, logic.Bit(rng.Intn(3)))
			c.Regs[r].AR = arst
			c.Regs[r].ARVal = logic.Bit(rng.Intn(3))
			pool = append(pool, q)
			if rng.Intn(2) == 0 {
				c.MarkOutput(q)
			}
		}
	}
	c.MarkOutput(pool[len(pool)-1])
	return c
}

// TestRelocateMatchesLegacyRandom compares the two justifiers on random
// two-domain circuits and random bounded retimings, under both engines and
// a tiny BDD budget. Conflicts there often follow a successful sync solve,
// which is the case where the graph keeps showing a removed layer's old
// values; the test requires that case to occur.
func TestRelocateMatchesLegacyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	held := 0
	for iter := 0; iter < 400; iter++ {
		c := randomResetCircuit(rng)
		if c.NumRegs() == 0 {
			continue
		}
		m, err := mcgraph.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		info := m.ComputeBounds()
		r := make([]int32, len(m.Verts))
		for v := range m.Verts {
			if hi := info.RMax[v]; hi > 0 {
				r[v] = int32(rng.Intn(int(min(hi, 3)) + 1))
			} else if lo := info.RMin[v]; lo < 0 && rng.Intn(3) == 0 {
				r[v] = -1
			}
		}
		engine, nodes := Engine(iter%2), 0
		if iter%5 == 0 {
			nodes = 4
		}
		j, _ := relocateBoth(t, m, r, func(j *Justifier) { j.Engine, j.BDDNodes = engine, nodes })
		for _, st := range j.ser {
			if st.held != [2]bool{} {
				held++
			}
		}
	}
	if held == 0 {
		t.Error("no removed layer was put back with values its global solve had rewritten")
	}
	t.Logf("%d serials shown with held values", held)
}

// TestGlobalBudgetThenLocalUnbudgeted: the justifier's one BDD manager
// serves a global solve that blows a one-node budget and escalates to SAT,
// then the local steps after it, which must run without that budget.
//
//	vA = NOT(ain), vB = NOT(bin) -> v2 = AND -> z ; Fig. 5 above z
func TestGlobalBudgetThenLocalUnbudgeted(t *testing.T) {
	c := netlist.New("reuse")
	ain := c.AddInput("ain")
	bin := c.AddInput("bin")
	cc := c.AddInput("c")
	clk := c.AddInput("clk")
	rst := c.AddInput("rst")
	_, za := c.AddGate("vA", netlist.Not, []netlist.SignalID{ain}, 100)
	_, zb := c.AddGate("vB", netlist.Not, []netlist.SignalID{bin}, 100)
	_, z := c.AddGate("v2", netlist.And, []netlist.SignalID{za, zb}, 100)
	_, o3 := c.AddGate("v3", netlist.Or, []netlist.SignalID{z, cc}, 100)
	_, o4 := c.AddGate("v4", netlist.Not, []netlist.SignalID{z}, 100)
	_, q3 := syncReg(c, "r3", o3, clk, rst, logic.B1)
	_, q4 := syncReg(c, "r4", o4, clk, rst, logic.B1)
	c.MarkOutput(q3)
	c.MarkOutput(q4)
	m, err := mcgraph.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]int32, len(m.Verts))
	for _, name := range []string{"vA", "vB", "v2", "v3", "v4"} {
		r[gateVertex(t, m, name)] = 1
	}
	j := New(m)
	j.BDDNodes = 1
	if _, err := m.Relocate(r, j); err != nil {
		t.Fatalf("relocation failed: %v (stats %+v)", err, j.Stats)
	}
	want := Stats{LocalSteps: 4, GlobalSteps: 1, Escalations: 1}
	if j.Stats != want {
		t.Errorf("stats %+v, want %+v", j.Stats, want)
	}
	if j.bdd.Err() != nil || j.bdd.MaxNodes != 0 {
		t.Errorf("after the last local solve the manager has err %v, MaxNodes %d; want nil, 0", j.bdd.Err(), j.bdd.MaxNodes)
	}
	out, err := m.Rebuild("reuse2")
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]logic.Bit{"ain": logic.BX, "bin": logic.BX, "c": logic.BX}
	out.LiveRegs(func(rg *netlist.Reg) { vals[out.Signals[rg.D].Name] = rg.SRVal })
	if !vals["ain"].Known() && !vals["bin"].Known() {
		t.Errorf("no local step after the global one fixed a value: %v", vals)
	}
	for _, a := range completions(vals["ain"]) {
		for _, b := range completions(vals["bin"]) {
			for _, cv := range completions(vals["c"]) {
				and := !a && !b
				if and || !(and || cv) {
					t.Errorf("reset values %v violate the registers' values at ain=%v bin=%v c=%v", vals, a, b, cv)
				}
			}
		}
	}
}

// BenchmarkRelocate times relocation of mapped C6 at its first-attempt
// retiming — 1538 local and 309 global justifications, 138 conflicts —
// with the production justifier, with the legacy map-based one, and with
// the production justifier running every global justification on the SAT
// backend instead of BDDs.
func BenchmarkRelocate(b *testing.B) {
	f := newFlowSolver(b, mappedProfile(b, 6))
	r := f.retiming(b)
	for _, variant := range []struct {
		name  string
		hooks func(m *mcgraph.MC) mcgraph.Hooks
	}{
		{"flat", func(m *mcgraph.MC) mcgraph.Hooks { return New(m) }},
		{"legacy", func(m *mcgraph.MC) mcgraph.Hooks { return newLegacy(m) }},
		{"sat", func(m *mcgraph.MC) mcgraph.Hooks {
			j := New(m)
			j.Engine = EngineSAT
			return j
		}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := f.m.Clone()
				b.StartTimer()
				var je *mcgraph.ErrJustify
				if _, err := m.Relocate(r, variant.hooks(m)); !errors.As(err, &je) {
					b.Fatalf("C6 first attempt: err %v, want justification conflicts", err)
				}
			}
		})
	}
}

// bothResets adds a register with synchronous reset srst (value s) and
// asynchronous reset arst (value a).
func bothResets(c *netlist.Circuit, d, clk, srst, arst netlist.SignalID, s, a logic.Bit) netlist.SignalID {
	r, q := syncReg(c, "", d, clk, srst, s)
	c.Regs[r].AR = arst
	c.Regs[r].ARVal = a
	return q
}

// TestHeldLayerRewrittenLater: an undone backward step puts its removed
// layer back with the values the graph showed, although its sync solve
// had rewritten them; a later global solve rewrites the layer again, and
// the graph must then show that solve's values.
//
//	v = BUF(vin) -> s -> w = OR(u, v) -> Rw(s=1, a=0)
//	v -> R2(s=0, a=1)        u = BUF(uin) -> R3(s=0, a=0)
//
// Moving w back leaves s = (X, 0) on v→w and t = (1, 0) on u→w. Moving v
// back conflicts: its sync solve sets s to 0, its async one cannot make
// s both 1 (R2) and 0 (Rw). Moving u back then re-solves through w's move
// and sets s to (1, 0).
func TestHeldLayerRewrittenLater(t *testing.T) {
	c := netlist.New("held")
	vin := c.AddInput("vin")
	uin := c.AddInput("uin")
	clk := c.AddInput("clk")
	srst := c.AddInput("srst")
	arst := c.AddInput("arst")
	_, v := c.AddGate("v", netlist.Buf, []netlist.SignalID{vin}, 100)
	_, u := c.AddGate("u", netlist.Buf, []netlist.SignalID{uin}, 100)
	_, w := c.AddGate("w", netlist.Or, []netlist.SignalID{u, v}, 100)
	c.MarkOutput(bothResets(c, w, clk, srst, arst, logic.B1, logic.B0))
	c.MarkOutput(bothResets(c, v, clk, srst, arst, logic.B0, logic.B1))
	c.MarkOutput(bothResets(c, u, clk, srst, arst, logic.B0, logic.B0))
	m, err := mcgraph.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]int32, len(m.Verts))
	for _, name := range []string{"v", "u", "w"} {
		r[gateVertex(t, m, name)] = 1
	}
	j, err := relocateBoth(t, m, r, func(*Justifier) {})
	var je *mcgraph.ErrJustify
	if !errors.As(err, &je) || len(je.Conflicts) != 1 || je.Conflicts[0].V != graph.VertexID(gateVertex(t, m, "v")) {
		t.Fatalf("err = %v, want one conflict at v", err)
	}
	if want := (Stats{LocalSteps: 1, GlobalSteps: 2, Conflicts: 1}); j.Stats != want {
		t.Errorf("stats %+v, want %+v", j.Stats, want)
	}
}

// TestClosureStopsPastMaxGlobalVars: the trace-back region of a long chain
// of moves is abandoned as soon as it passes maxGlobalVars serials, and a
// region within the cap is collected in depth-first discovery order.
func TestClosureStopsPastMaxGlobalVars(t *testing.T) {
	j := &Justifier{}
	// Move k consumes serial k+1 and creates serial k; serial n has no creator.
	chain := func(n int) *record {
		var seed *record
		for k := n - 1; k >= 0; k-- {
			rec := &record{fanin: []int64{int64(k + 1)}, out: []int64{int64(k)}}
			j.state(int64(k + 1))
			j.state(int64(k))
			j.register(rec)
			seed = rec
		}
		return seed
	}
	if seed := chain(maxGlobalVars + 100); j.closure(seed) {
		t.Fatalf("closure accepted a %d-serial region", maxGlobalVars+101)
	}
	if got := len(j.comp.order); got != maxGlobalVars+1 {
		t.Errorf("closure walked %d serials before giving up, want %d", got, maxGlobalVars+1)
	}
	j = &Justifier{}
	seed := chain(5)
	if !j.closure(seed) {
		t.Fatal("closure rejected a 6-serial region")
	}
	// Forward records: consumed = fanin (k+1), created = out (k).
	if want := []int64{1, 2, 3, 4, 5, 0}; !reflect.DeepEqual(j.comp.order, want) {
		t.Errorf("order %v, want %v", j.comp.order, want)
	}
}
