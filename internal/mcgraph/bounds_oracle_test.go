package mcgraph

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/trace"
	"mcretiming/internal/xc4000"
)

// maximalRetime is the unit-step oracle for the multi-layer sweeps of
// ComputeBoundsCtx: it applies one valid mc-step (CanBackward/StepBackward
// or CanForward/StepForward) per worklist pop until no more apply, capping
// per-vertex counts, and returns the per-vertex move counts and unbounded
// flags. The receiver is mutated.
func (m *MC) maximalRetime(backward bool, cap32 int32) (counts []int32, unbounded []bool) {
	n := len(m.Verts)
	counts = make([]int32, n)
	unbounded = make([]bool, n)

	can := m.CanForward
	step := m.StepForward
	if backward {
		can = m.CanBackward
		step = m.StepBackward
	}

	// Worklist to a fixpoint: a move at v can only enable moves at v itself
	// or at its direct neighbours (that is where registers appeared), so
	// after each move v and its neighbours are re-enqueued.
	inQ := make([]bool, n)
	var queue []graph.VertexID
	push := func(v graph.VertexID) {
		if !inQ[v] && !unbounded[v] {
			inQ[v] = true
			queue = append(queue, v)
		}
	}
	for v := 1; v < n; v++ {
		push(graph.VertexID(v))
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQ[v] = false
		if _, ok := can(v); !ok {
			continue
		}
		if _, err := step(v); err != nil {
			continue
		}
		counts[v]++
		if counts[v] >= cap32 {
			unbounded[v] = true
		} else {
			push(v)
		}
		for _, ei := range m.in[v] {
			push(m.Edges[ei].From)
		}
		for _, ei := range m.out[v] {
			push(m.Edges[ei].To)
		}
	}
	return counts, unbounded
}

// edgeClasses returns every edge's register class sequence, source end first.
func edgeClasses(m *MC) [][]ClassID {
	out := make([][]ClassID, len(m.Edges))
	for i := range m.Edges {
		for _, r := range m.Edges[i].Regs {
			out[i] = append(out[i], r.Class)
		}
	}
	return out
}

func equalSeqs(a, b [][]ClassID) bool {
	return slices.EqualFunc(a, b, func(x, y []ClassID) bool { return slices.Equal(x, y) })
}

// checkBoundsOracle requires ComputeBounds to match the unit-step oracle bit
// for bit — RMax, RMin, both Unbounded vectors, StepsPossible and the
// backward class sequences — and to leave m unchanged. It returns the
// number of capped (unbounded) vertices so callers can see the capped case
// was exercised.
func checkBoundsOracle(t *testing.T, name string, m *MC) int {
	t.Helper()
	before := edgeClasses(m)
	got := m.ComputeBounds()
	if !equalSeqs(before, edgeClasses(m)) {
		t.Fatalf("%s: ComputeBounds mutated the mc-graph", name)
	}

	cap32 := int32(m.NumRegInstances()) + 1
	bw, fw := m.Clone(), m.Clone()
	rmax, ubMax := bw.maximalRetime(true, cap32)
	rmin, ubMin := fw.maximalRetime(false, cap32)
	var steps int64
	for v := range rmin {
		steps += int64(rmax[v]) + int64(rmin[v])
		rmin[v] = -rmin[v]
	}

	switch {
	case !slices.Equal(got.RMax, rmax):
		t.Fatalf("%s: RMax differs from the unit-step oracle", name)
	case !slices.Equal(got.RMin, rmin):
		t.Fatalf("%s: RMin differs from the unit-step oracle", name)
	case !slices.Equal(got.UnboundedMax, ubMax):
		t.Fatalf("%s: UnboundedMax differs from the unit-step oracle", name)
	case !slices.Equal(got.UnboundedMin, ubMin):
		t.Fatalf("%s: UnboundedMin differs from the unit-step oracle", name)
	case got.StepsPossible != steps:
		t.Fatalf("%s: StepsPossible %d, oracle %d", name, got.StepsPossible, steps)
	case !equalSeqs(got.BackwardClasses, edgeClasses(bw)):
		t.Fatalf("%s: backward class sequences differ from the unit-step oracle", name)
	}
	capped := 0
	for v := range ubMax {
		if ubMax[v] || ubMin[v] {
			capped++
		}
	}
	return capped
}

func buildOrFatal(t *testing.T, c *netlist.Circuit) *MC {
	t.Helper()
	m, err := Build(c)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return m
}

// randomCyclicCircuit is randomMCCircuit with feedback: nFB registers whose
// outputs are usable from the start and whose inputs are driven last, so
// register-broken cycles (compatible or not) run through the logic.
func randomCyclicCircuit(rng *rand.Rand, nGates, nFB int) *netlist.Circuit {
	c := netlist.New(fmt.Sprintf("cyc%d", rng.Int31()))
	clk := c.AddInput("clk")
	en := c.AddInput("en")
	arst := c.AddInput("arst")
	pool := []netlist.SignalID{c.AddInput("a"), c.AddInput("b")}
	addReg := func(d netlist.SignalID) netlist.SignalID {
		rid, q := c.AddReg("", d, clk)
		switch rng.Intn(3) {
		case 1:
			c.Regs[rid].EN = en
		case 2:
			c.Regs[rid].AR = arst
			c.Regs[rid].ARVal = logic.Bit(rng.Intn(2))
		}
		return q
	}
	fb := make([]netlist.SignalID, nFB)
	for i := range fb {
		fb[i] = c.AddSignal(fmt.Sprintf("fb%d", i))
		q := addReg(fb[i])
		for rng.Intn(2) == 0 {
			q = addReg(q)
		}
		pool = append(pool, q)
	}
	types := []netlist.GateType{netlist.And, netlist.Or, netlist.Xor, netlist.Nand, netlist.Not}
	pick := func(n int) []netlist.SignalID {
		in := make([]netlist.SignalID, n)
		for j := range in {
			in[j] = pool[rng.Intn(len(pool))]
		}
		return in
	}
	for i := 0; i < nGates; i++ {
		n := 2
		gt := types[rng.Intn(len(types))]
		if gt == netlist.Not {
			n = 1
		}
		_, o := c.AddGate("", gt, pick(n), int64(1000*(1+rng.Intn(5))))
		pool = append(pool, o)
		if rng.Intn(3) == 0 {
			pool = append(pool, addReg(o))
		}
	}
	for _, d := range fb {
		c.AddGateTo("", netlist.Not, pick(1), d, 1000)
	}
	// Every signal nothing reads feeds one output reduction.
	used := make([]bool, len(c.Signals))
	c.LiveGates(func(g *netlist.Gate) {
		for _, in := range g.In {
			used[in] = true
		}
	})
	c.LiveRegs(func(r *netlist.Reg) { used[r.D] = true })
	var loose []netlist.SignalID
	for i := range c.Signals {
		d := c.Signals[i].Driver
		if !used[i] && (d.Kind == netlist.DriverGate || d.Kind == netlist.DriverReg) {
			loose = append(loose, netlist.SignalID(i))
		}
	}
	if len(loose) == 0 {
		loose = append(loose, pool[len(pool)-1])
	}
	for len(loose) > 1 {
		_, o := c.AddGate("", netlist.Xor, loose[:2], 1000)
		loose = append(loose[2:], o)
	}
	c.MarkOutput(loose[0])
	return c
}

// compatibleRing is a ring of n inverters carrying regs plain registers —
// a layer that can rotate forever — tapped by a primary output.
func compatibleRing(n, regs int) *netlist.Circuit {
	c := netlist.New(fmt.Sprintf("ring%dx%d", n, regs))
	clk := c.AddInput("clk")
	d := c.AddSignal("loop")
	q := d
	for i := 0; i < regs; i++ {
		_, q = c.AddReg("", q, clk)
	}
	for i := 0; i < n-1; i++ {
		_, q = c.AddGate("", netlist.Not, []netlist.SignalID{q}, 100)
	}
	c.AddGateTo("", netlist.Not, []netlist.SignalID{q}, d, 100)
	c.MarkOutput(q)
	return c
}

// noMoveFixture puts frozen edges on both sides of movable logic: a gate
// computing an enable from registered data (a control-net fanout), and a
// registered gate feeding a primary output and the enable tap.
func noMoveFixture() *netlist.Circuit {
	c := netlist.New("nomove")
	clk := c.AddInput("clk")
	a := c.AddInput("a")
	b := c.AddInput("b")
	_, qa := c.AddReg("ra", a, clk)
	_, qb := c.AddReg("rb", b, clk)
	_, x := c.AddGate("x", netlist.And, []netlist.SignalID{qa, qb}, 1000)
	_, qx := c.AddReg("rx", x, clk)
	_, enSig := c.AddGate("enc", netlist.Or, []netlist.SignalID{qx, qa}, 1000)
	_, y := c.AddGate("y", netlist.Xor, []netlist.SignalID{qx, qb}, 1000)
	r1, q1 := c.AddReg("r1", y, clk)
	c.Regs[r1].EN = enSig
	_, q2 := c.AddReg("r2", q1, clk)
	_, z := c.AddGate("z", netlist.Not, []netlist.SignalID{q2}, 1000)
	c.MarkOutput(z)
	c.MarkOutput(enSig)
	return c
}

// TestBoundsMatchUnitStepOracle pins the multi-layer sweeps to the unit-step
// oracle on every circuit family the flow sees: the Table-2 suite raw and
// XC4000-mapped (whose counters carry capped, unbounded vertices), random
// acyclic and cyclic circuits, scale DAGs and pipelines, compatible rings,
// and frozen control-net edges.
func TestBoundsMatchUnitStepOracle(t *testing.T) {
	suite, err := gen.Suite()
	if err != nil {
		t.Fatal(err)
	}
	capped := 0
	for i, c := range suite {
		name := fmt.Sprintf("C%d", i+1)
		capped += checkBoundsOracle(t, name, buildOrFatal(t, c))
		mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
		if err != nil {
			t.Fatalf("%s: map: %v", name, err)
		}
		n := checkBoundsOracle(t, name+"/mapped", buildOrFatal(t, mapped))
		t.Logf("%s/mapped: %d capped vertices", name, n)
		capped += n
	}
	if capped == 0 {
		t.Fatal("no suite circuit has a capped vertex; the unbounded case went untested")
	}

	rng := rand.New(rand.NewSource(47))
	capped = 0
	for iter := 0; iter < 40; iter++ {
		c := randomMCCircuit(rng, 10+rng.Intn(40))
		checkBoundsOracle(t, fmt.Sprintf("randomMC/%d", iter), buildOrFatal(t, c))
		c = randomCyclicCircuit(rng, 10+rng.Intn(40), 1+rng.Intn(4))
		capped += checkBoundsOracle(t, fmt.Sprintf("cyclic/%d", iter), buildOrFatal(t, c))
	}
	if capped == 0 {
		t.Fatal("no random cyclic circuit has a capped vertex")
	}
	for seed := int64(1); seed <= 8; seed++ {
		c := gen.Random(seed, 100+int(seed)*60)
		checkBoundsOracle(t, fmt.Sprintf("gen.Random/%d", seed), buildOrFatal(t, c))
	}
	mix := gen.ClassMix{Plain: 2, EN: 1, SR: 1, AR: 1}
	for seed := int64(1); seed <= 3; seed++ {
		c, err := gen.ScaleDAG(seed, 3000, mix)
		if err != nil {
			t.Fatal(err)
		}
		checkBoundsOracle(t, c.Name, buildOrFatal(t, c))
	}
	for _, sh := range [][2]int{{8, 40}, {32, 300}} {
		c, err := gen.ScalePipeline(1, sh[0], sh[1], gen.ClassMix{Plain: 1, EN: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkBoundsOracle(t, c.Name, buildOrFatal(t, c))
	}
	for _, sh := range [][2]int{{2, 1}, {3, 2}, {5, 7}} {
		c := compatibleRing(sh[0], sh[1])
		if checkBoundsOracle(t, c.Name, buildOrFatal(t, c)) == 0 {
			t.Fatalf("%s: compatible ring has no capped vertex", c.Name)
		}
	}
	m := buildOrFatal(t, noMoveFixture())
	frozen := 0
	for i := range m.Edges {
		e := &m.Edges[i]
		if e.NoMove && e.From != 0 && e.To != 0 {
			frozen++
		}
	}
	if frozen == 0 {
		t.Fatal("nomove fixture has no frozen data-side edge")
	}
	checkBoundsOracle(t, "nomove", m)
}

// TestBoundsMovesOutputSensitive guards against a regression to unit
// stepping: on the 32×300 deep pipeline (5.76M possible unit steps) both
// sweeps together may take at most two multi-layer moves per vertex.
func TestBoundsMovesOutputSensitive(t *testing.T) {
	c, err := gen.ScalePipeline(1, 32, 300, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := buildOrFatal(t, c)
	rec := trace.NewRecorder()
	info, err := m.ComputeBoundsCtx(trace.With(context.Background(), rec))
	if err != nil {
		t.Fatal(err)
	}
	moves := rec.Counter("bounds-moves")
	t.Logf("%d vertices, %d steps possible, %d multi-layer moves", len(m.Verts), info.StepsPossible, moves)
	if moves <= 0 || moves > 2*int64(len(m.Verts)) {
		t.Fatalf("bounds took %d multi-layer moves on %d vertices, want 1..%d",
			moves, len(m.Verts), 2*len(m.Verts))
	}
}

// TestBoundsCancel checks that a cancelled context aborts the sweeps.
func TestBoundsCancel(t *testing.T) {
	c, err := gen.ScalePipeline(1, 8, 40, gen.ClassMix{Plain: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := buildOrFatal(t, c).ComputeBoundsCtx(ctx); err == nil {
		t.Fatal("ComputeBoundsCtx ignored a cancelled context")
	}
}

// FuzzBoundsOracle checks the multi-layer sweeps against the unit-step
// oracle on a random, possibly cyclic, multi-class circuit drawn from the
// fuzz input.
func FuzzBoundsOracle(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(20*seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, gates, feedback uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomCyclicCircuit(rng, 1+int(gates)%80, int(feedback)%6)
		checkBoundsOracle(t, c.Name, buildOrFatal(t, c))
	})
}
