package mcgraph

import (
	"context"
	"testing"

	"mcretiming/internal/graph"
	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
)

// enPipeline builds Fig. 1a): two registers with a common load enable
// feeding an AND gate, followed by a slow gate, so minperiod retiming wants
// to move the register layer forward across the AND.
func enPipeline(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("fig1a")
	i1 := c.AddInput("i1")
	i2 := c.AddInput("i2")
	en := c.AddInput("en")
	clk := c.AddInput("clk")
	r1, q1 := c.AddReg("r1", i1, clk)
	r2, q2 := c.AddReg("r2", i2, clk)
	c.Regs[r1].EN = en
	c.Regs[r2].EN = en
	_, g := c.AddGate("g", netlist.And, []netlist.SignalID{q1, q2}, 1000)
	_, h := c.AddGate("h", netlist.Or, []netlist.SignalID{g, g}, 10000)
	c.MarkOutput(h)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassification(t *testing.T) {
	c := netlist.New("cls")
	d := c.AddInput("d")
	clk := c.AddInput("clk")
	en := c.AddInput("en")
	rst := c.AddInput("rst")

	r1, q1 := c.AddReg("r1", d, clk)
	c.Regs[r1].EN = en
	r2, q2 := c.AddReg("r2", d, clk)
	c.Regs[r2].EN = en
	r3, q3 := c.AddReg("r3", d, clk) // no enable
	r4, q4 := c.AddReg("r4", d, clk) // EN tied to const 1: same as r3
	c.Regs[r4].EN = c.Const(logic.B1)
	// r5: enable reached through a buffer: same class as r1/r2.
	_, enBuf := c.AddGate("bufen", netlist.Buf, []netlist.SignalID{en}, 0)
	r5, q5 := c.AddReg("r5", d, clk)
	c.Regs[r5].EN = enBuf
	// r6: async clear.
	r6, q6 := c.AddReg("r6", d, clk)
	c.Regs[r6].AR = rst
	c.Regs[r6].ARVal = logic.B0
	for _, q := range []netlist.SignalID{q1, q2, q3, q4, q5, q6} {
		c.MarkOutput(q)
	}

	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Classes) != 3 {
		t.Fatalf("got %d classes, want 3 (en, plain, async)", len(m.Classes))
	}
	if m.ClassOfReg(r1) != m.ClassOfReg(r2) || m.ClassOfReg(r1) != m.ClassOfReg(r5) {
		t.Error("same-enable registers not in one class")
	}
	if m.ClassOfReg(r3) != m.ClassOfReg(r4) {
		t.Error("EN=const1 not normalized to no-enable class")
	}
	if m.ClassOfReg(r1) == m.ClassOfReg(r3) {
		t.Error("enabled and plain registers share a class")
	}
	if m.ClassOfReg(r6) == m.ClassOfReg(r3) {
		t.Error("async-clear register classified as plain")
	}
}

func TestFig3ValidStepForwardAndBack(t *testing.T) {
	c := enPipeline(t)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	gv := m.vertexOfGate[netlist.GateID(0)] // gate "g"

	// Forward step across g is valid: a complete compatible layer on both
	// fanin edges.
	cls, ok := m.CanForward(gv)
	if !ok {
		t.Fatal("forward step at g should be valid (Fig. 3)")
	}
	if !m.Classes[cls].HasEN() {
		t.Error("moved layer lost its enable class")
	}
	removed, err := m.StepForward(gv)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %d registers, want 2", len(removed))
	}
	// Both fanout edges of g (to h's two pins) now carry the layer.
	for _, ei := range m.Out(gv) {
		if len(m.Edges[ei].Regs) != 1 {
			t.Errorf("fanout edge has %d regs, want 1", len(m.Edges[ei].Regs))
		}
	}
	// And the move reverses.
	if _, ok := m.CanBackward(gv); !ok {
		t.Fatal("backward step should now be valid")
	}
	if _, err := m.StepBackward(gv); err != nil {
		t.Fatal(err)
	}
	for _, ei := range m.In(gv) {
		if len(m.Edges[ei].Regs) != 1 {
			t.Errorf("fanin edge has %d regs after round trip, want 1", len(m.Edges[ei].Regs))
		}
	}
}

func TestIncompatibleLayerBlocksMove(t *testing.T) {
	c := netlist.New("mix")
	i1 := c.AddInput("i1")
	i2 := c.AddInput("i2")
	en := c.AddInput("en")
	clk := c.AddInput("clk")
	r1, q1 := c.AddReg("r1", i1, clk)
	c.Regs[r1].EN = en
	_, q2 := c.AddReg("r2", i2, clk) // plain: different class
	_, g := c.AddGate("g", netlist.And, []netlist.SignalID{q1, q2}, 100)
	c.MarkOutput(g)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	gv := m.vertexOfGate[netlist.GateID(0)]
	if _, ok := m.CanForward(gv); ok {
		t.Fatal("forward step with incompatible layer accepted")
	}
}

func TestBoundsSimpleChain(t *testing.T) {
	// i -> r1 -> g1 -> g2 -> r2 -> o : g1,g2 can move one layer either way?
	c := netlist.New("chain")
	i := c.AddInput("i")
	clk := c.AddInput("clk")
	_, q1 := c.AddReg("r1", i, clk)
	_, x := c.AddGate("g1", netlist.Not, []netlist.SignalID{q1}, 100)
	_, y := c.AddGate("g2", netlist.Not, []netlist.SignalID{x}, 100)
	_, q2 := c.AddReg("r2", y, clk)
	c.MarkOutput(q2)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	info := m.ComputeBounds()
	g1 := m.vertexOfGate[netlist.GateID(0)]
	g2 := m.vertexOfGate[netlist.GateID(1)]
	// One register layer sits on each side: each gate can pass the r1 layer
	// forward once and the r2 layer backward once.
	if info.RMin[g1] != -1 || info.RMax[g1] != 1 {
		t.Errorf("g1 bounds = [%d,%d], want [-1,1]", info.RMin[g1], info.RMax[g1])
	}
	if info.RMin[g2] != -1 || info.RMax[g2] != 1 {
		t.Errorf("g2 bounds = [%d,%d], want [-1,1]", info.RMin[g2], info.RMax[g2])
	}
	if info.StepsPossible != 4 {
		t.Errorf("StepsPossible = %d, want 4", info.StepsPossible)
	}
}

func TestBoundsBlockedByClassBoundary(t *testing.T) {
	// Two-class pipeline: en-layer then plain layer; the plain layer cannot
	// move backward past the en layer's position... it can move backward
	// across g only if g's fanout edge front register is plain — layering
	// keeps classes apart, so maximal backward retiming of g stops after
	// the plain layer.
	c := netlist.New("twoclass")
	i := c.AddInput("i")
	en := c.AddInput("en")
	clk := c.AddInput("clk")
	r1, q1 := c.AddReg("r1", i, clk)
	c.Regs[r1].EN = en
	_, x := c.AddGate("g", netlist.Not, []netlist.SignalID{q1}, 100)
	_, q2 := c.AddReg("r2", x, clk) // plain
	c.MarkOutput(q2)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	info := m.ComputeBounds()
	gv := m.vertexOfGate[netlist.GateID(0)]
	if info.RMax[gv] != 1 || info.RMin[gv] != -1 {
		t.Errorf("g bounds = [%d,%d], want [-1,1]", info.RMin[gv], info.RMax[gv])
	}
	if info.UnboundedMax[gv] || info.UnboundedMin[gv] {
		t.Error("acyclic circuit reported unbounded")
	}
}

func TestUnboundedOnCompatibleCycle(t *testing.T) {
	// A registered ring of inverters: the layer can rotate forever.
	c := netlist.New("ring")
	clk := c.AddInput("clk")
	d := c.AddSignal("loop")
	_, q := c.AddReg("r", d, clk)
	_, x := c.AddGate("g1", netlist.Not, []netlist.SignalID{q}, 100)
	c.AddGateTo("g2", netlist.Not, []netlist.SignalID{x}, d, 100)
	c.MarkOutput(q)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	info := m.ComputeBounds()
	g1 := m.vertexOfGate[netlist.GateID(0)]
	// Forward rotation is unbounded (the layer circulates, piling registers
	// onto the output edge); backward rotation is drained by the PO edge,
	// which never refills, so it stays bounded.
	if !info.UnboundedMin[g1] {
		t.Error("ring vertex forward bound should be unbounded")
	}
	if info.UnboundedMax[g1] {
		t.Error("ring vertex backward bound should stay finite (PO edge drains)")
	}
	gb := info.GraphBounds(m)
	if gb.Min[g1] != graph.NoLower {
		t.Error("unbounded forward direction not left open in graph bounds")
	}
	if gb.Max[g1] == graph.NoUpper {
		t.Error("bounded backward direction left open")
	}
}

func TestControlNetFreezesDriver(t *testing.T) {
	// The gate computing an enable signal must not be retimed (a register
	// on the control net would desynchronize every register of the class).
	c := netlist.New("ctrl")
	i := c.AddInput("i")
	a := c.AddInput("a")
	b := c.AddInput("b")
	clk := c.AddInput("clk")
	_, q0 := c.AddReg("r0", i, clk)
	_, enSig := c.AddGate("genc", netlist.And, []netlist.SignalID{a, b}, 100)
	_, x := c.AddGate("g", netlist.Not, []netlist.SignalID{q0}, 100)
	r1, q1 := c.AddReg("r1", x, clk)
	c.Regs[r1].EN = enSig
	c.MarkOutput(q1)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	info := m.ComputeBounds()
	genc := m.vertexOfGate[netlist.GateID(0)]
	if info.RMax[genc] != 0 || info.RMin[genc] != 0 {
		t.Errorf("control driver bounds = [%d,%d], want [0,0]",
			info.RMin[genc], info.RMax[genc])
	}
	// And a control-out vertex must exist.
	found := false
	for _, v := range m.Verts {
		if v.Kind == KCtrlOut {
			found = true
		}
	}
	if !found {
		t.Error("no control output vertex created")
	}
}

func TestRelocateRoundTripRebuild(t *testing.T) {
	c := enPipeline(t)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	// Identity retiming: rebuild must preserve counts.
	r := make([]int32, len(m.Verts))
	if _, err := m.Relocate(r, nil); err != nil {
		t.Fatal(err)
	}
	out, err := m.Rebuild("same")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRegs() != c.NumRegs() {
		t.Errorf("identity rebuild: %d regs, want %d", out.NumRegs(), c.NumRegs())
	}
	if out.NumGates() != c.NumGates() {
		t.Errorf("identity rebuild: %d gates, want %d", out.NumGates(), c.NumGates())
	}
}

func TestFig1ForwardMoveSharesEnableRegisters(t *testing.T) {
	c := enPipeline(t)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	// Move the enable layer forward across the AND gate (Fig. 1 a->b).
	r := make([]int32, len(m.Verts))
	gv := m.vertexOfGate[netlist.GateID(0)]
	r[gv] = -1
	if _, err := m.Relocate(r, nil); err != nil {
		t.Fatal(err)
	}
	out, err := m.Rebuild("fig1b")
	if err != nil {
		t.Fatal(err)
	}
	// Two EN registers became one (the paper's key economy: no mux logic,
	// fewer registers).
	if got := out.NumRegs(); got != 1 {
		t.Errorf("registers after forward move = %d, want 1", got)
	}
	if got := out.NumGates(); got != c.NumGates() {
		t.Errorf("gates changed: %d, want %d (no decomposition logic!)", got, c.NumGates())
	}
	// The surviving register kept its enable.
	out.LiveRegs(func(rg *netlist.Reg) {
		if !rg.HasEN() {
			t.Error("moved register lost its load enable")
		}
	})
}

func TestRelocateRejectsIllegalRetiming(t *testing.T) {
	c := enPipeline(t)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]int32, len(m.Verts))
	gv := m.vertexOfGate[netlist.GateID(0)]
	r[gv] = -2 // only one layer exists
	if _, err := m.Relocate(r, nil); err == nil {
		t.Fatal("relocation accepted an illegal retiming")
	}
}

// areaGraph builds m's sharing graph for a test.
func areaGraph(t *testing.T, m *MC, info *BoundsInfo) (*graph.Graph, *graph.Bounds) {
	t.Helper()
	g, gb, err := m.AreaGraph(context.Background(), info)
	if err != nil {
		t.Fatal(err)
	}
	return g, gb
}

func TestAreaGraphWeightsConserved(t *testing.T) {
	c := enPipeline(t)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	info := m.ComputeBounds()
	g, gb := areaGraph(t, m, info)
	if len(gb.Min) != g.NumVertices() {
		t.Fatalf("bounds cover %d of %d vertices", len(gb.Min), g.NumVertices())
	}
	// Total register instances conserved by edge splitting.
	if got, want := g.TotalWeight(nil), int64(m.NumRegInstances()); got != want {
		t.Errorf("area graph weight = %d, want %d", got, want)
	}
	// Identity must stay feasible.
	if err := gb.Check(make([]int32, g.NumVertices())); err != nil {
		t.Errorf("identity violates area-graph bounds: %v", err)
	}
}

// Fig. 4 shape: a multi-fanout vertex with mixed-class layers must get
// separation vertices so non-sharable registers are billed individually.
func TestFig4SharingSeparation(t *testing.T) {
	c := netlist.New("fig4")
	i := c.AddInput("i")
	en := c.AddInput("en")
	clk := c.AddInput("clk")
	_, u := c.AddGate("u", netlist.Not, []netlist.SignalID{i}, 100)
	// Fanout 1: one plain register then a gate.
	_, qa := c.AddReg("ra", u, clk)
	_, v1 := c.AddGate("v1", netlist.Not, []netlist.SignalID{qa}, 100)
	// Fanout 2: an enabled register then a gate: different class.
	rb, qb := c.AddReg("rb", u, clk)
	c.Regs[rb].EN = en
	_, v2 := c.AddGate("v2", netlist.Not, []netlist.SignalID{qb}, 100)
	c.MarkOutput(v1)
	c.MarkOutput(v2)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	info := m.ComputeBounds()
	g, _ := areaGraph(t, m, info)
	if g.NumVertices() <= len(m.Verts) {
		t.Error("no separation vertex inserted for mixed-class fanout")
	}
	if got, want := g.TotalWeight(nil), int64(m.NumRegInstances()); got != want {
		t.Errorf("weights not conserved: %d vs %d", got, want)
	}
}

func TestStepsReversibility(t *testing.T) {
	// Property: StepForward then StepBackward at the same vertex restores
	// all edge weights.
	c := enPipeline(t)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]int, len(m.Edges))
	for i := range m.Edges {
		before[i] = len(m.Edges[i].Regs)
	}
	gv := m.vertexOfGate[netlist.GateID(0)]
	if _, err := m.StepForward(gv); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StepBackward(gv); err != nil {
		t.Fatal(err)
	}
	for i := range m.Edges {
		if len(m.Edges[i].Regs) != before[i] {
			t.Errorf("edge %d weight changed across round trip", i)
		}
	}
}

func TestClassSummary(t *testing.T) {
	c := netlist.New("sum")
	d := c.AddInput("d")
	clk := c.AddInput("clk")
	en := c.AddInput("en")
	r1, q1 := c.AddReg("r1", d, clk)
	c.Regs[r1].EN = en
	_, q2 := c.AddReg("r2", d, clk)
	c.MarkOutput(q1)
	c.MarkOutput(q2)
	m, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	infos := m.ClassSummary()
	if len(infos) != 2 {
		t.Fatalf("classes = %d, want 2", len(infos))
	}
	total := 0
	foundEN := false
	for _, ci := range infos {
		total += ci.Registers
		if ci.Registers == 1 && ci.Desc == "clk=clk en=en" {
			foundEN = true
		}
		if ci.String() == "" {
			t.Error("empty class string")
		}
	}
	if total != 2 {
		t.Errorf("summed registers = %d, want 2", total)
	}
	if !foundEN {
		t.Errorf("enable class not described correctly: %+v", infos)
	}
}
