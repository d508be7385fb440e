package graph

import (
	"math/rand"
	"testing"
)

// correlator builds the classic Leiserson–Saxe digital correlator (their
// running example): four comparators of delay 3 feeding a chain of three
// adders of delay 7. Its original period is 24; the optimum is 13.
func correlator() *Graph {
	g := New()
	c1 := g.AddVertex("c1", 3)
	c2 := g.AddVertex("c2", 3)
	c3 := g.AddVertex("c3", 3)
	c4 := g.AddVertex("c4", 3)
	a1 := g.AddVertex("a1", 7)
	a2 := g.AddVertex("a2", 7)
	a3 := g.AddVertex("a3", 7)
	g.AddEdge(Host, c1, 1)
	g.AddEdge(c1, c2, 1)
	g.AddEdge(c2, c3, 1)
	g.AddEdge(c3, c4, 1)
	g.AddEdge(c1, a3, 0)
	g.AddEdge(c2, a2, 0)
	g.AddEdge(c3, a1, 0)
	g.AddEdge(c4, a1, 0)
	g.AddEdge(a1, a2, 0)
	g.AddEdge(a2, a3, 0)
	g.AddEdge(a3, Host, 0)
	return g
}

func TestCorrelatorOriginalPeriod(t *testing.T) {
	g := correlator()
	phi, err := g.Period(nil)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 24 {
		t.Errorf("original period = %d, want 24", phi)
	}
}

func TestCorrelatorMinPeriod(t *testing.T) {
	g := correlator()
	phi, r, err := g.MinPeriod(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 13 {
		t.Errorf("min period = %d, want 13", phi)
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	got, err := g.Period(r)
	if err != nil {
		t.Fatal(err)
	}
	if got != 13 {
		t.Errorf("achieved period = %d, want 13", got)
	}
}

func TestCorrelatorWD(t *testing.T) {
	g := correlator()
	wd := mustWD(t, g)
	// c1 ⇝ a3 direct: weight 0, delay 3+7 = 10.
	if w, d := wd.At(1, 7); w != 0 || d != 10 {
		t.Errorf("W,D(c1,a3) = %d,%d, want 0,10", w, d)
	}
	// c1 ⇝ a1: min weight is 2 (through c2,c3); D over those paths:
	// c1 c2 c3 a1 = 3+3+3+7 = 16 vs c1 c2 c3 c4 a1 = 3+3+3+3+7 = 19 but
	// that path has weight 3; tight max is 16.
	if w, d := wd.At(1, 5); w != 2 || d != 16 {
		t.Errorf("W,D(c1,a1) = %d,%d, want 2,16", w, d)
	}
	// Diagonal: trivial path.
	if w, d := wd.At(5, 5); w != 0 || d != 7 {
		t.Errorf("W,D(a1,a1) = %d,%d, want 0,7", w, d)
	}
}

func TestZeroBoundsForceOriginalPeriod(t *testing.T) {
	g := correlator()
	b := NewBounds(g.NumVertices())
	for v := range b.Min {
		b.Min[v], b.Max[v] = 0, 0
	}
	phi, r, err := g.MinPeriod(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 24 {
		t.Errorf("pinned min period = %d, want 24", phi)
	}
	for v, rv := range r {
		if rv != 0 {
			t.Errorf("r(%d) = %d, want 0", v, rv)
		}
	}
}

func TestPartialBoundsRespected(t *testing.T) {
	g := correlator()
	b := NewBounds(g.NumVertices())
	// Forbid moving anything backward past one layer.
	for v := 1; v < g.NumVertices(); v++ {
		b.Max[v] = 1
		b.Min[v] = -1
	}
	phi, r, err := g.MinPeriod(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Check(r); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	if phi < 13 || phi > 24 {
		t.Errorf("bounded min period = %d, outside [13,24]", phi)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	g := New()
	a := g.AddVertex("a", 1)
	b := g.AddVertex("b", 1)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, a, 0)
	if _, err := g.Period(nil); err == nil {
		t.Fatal("Period accepted a zero-weight cycle")
	}
}

func TestCheckLegalRejectsNegativeWeights(t *testing.T) {
	g := New()
	a := g.AddVertex("a", 1)
	b := g.AddVertex("b", 1)
	g.AddEdge(a, b, 0)
	g.AddEdge(Host, a, 1)
	g.AddEdge(b, Host, 1)
	r := make([]int32, g.NumVertices())
	r[a] = 1 // pulls a register off edge a→b which has none
	if err := g.CheckLegal(r); err == nil {
		t.Fatal("CheckLegal accepted negative retimed weight")
	}
}

func TestSolveDifferenceSimple(t *testing.T) {
	// r0 - r1 <= -1, r1 - r0 <= 5 : feasible (e.g. r0 = r1 - 1).
	cons := []Constraint{{Y: 1, X: 0, B: -1}, {Y: 0, X: 1, B: 5}}
	r, ok := SolveDifference(2, cons)
	if !ok {
		t.Fatal("feasible system reported infeasible")
	}
	if !(r[0]-r[1] <= -1 && r[1]-r[0] <= 5) {
		t.Errorf("solution %v violates constraints", r)
	}
	// Adding r1 - r0 <= 0 closes a cycle of weight -1: infeasible.
	cons = append(cons, Constraint{Y: 0, X: 1, B: 0})
	if _, ok := SolveDifference(2, cons); ok {
		t.Fatal("infeasible system reported feasible")
	}
}

// Parallel constraints improve a vertex once per constraint within one FIFO
// pass: here r1 four times while r0 is scanned, more than the n+1 = 3 a
// label-improvement count allowed. The system is feasible, so the backstop,
// which counts queue insertions, must not fire.
func TestSolveDifferenceParallelConstraints(t *testing.T) {
	var cons []Constraint
	for b := int32(-1); b >= -4; b-- {
		cons = append(cons, Constraint{Y: 0, X: 1, B: b})
	}
	r, ok := SolveDifference(2, cons)
	if !ok {
		t.Fatal("feasible system with parallel constraints reported infeasible")
	}
	if r[0] != 0 || r[1] != -4 {
		t.Errorf("solution %v, want [0 -4]", r)
	}
	// Closing the loop with r0 - r1 <= 3 makes a cycle of weight -1.
	if _, ok := SolveDifference(2, append(cons, Constraint{Y: 1, X: 0, B: 3})); ok {
		t.Fatal("infeasible system reported feasible")
	}
}

// Random DAG-ish graphs: MinPeriod must return a legal retiming achieving
// the reported period, and no feasible candidate below it may exist.
func TestMinPeriodRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		g := New()
		n := 4 + rng.Intn(12)
		vs := make([]VertexID, n)
		for i := 0; i < n; i++ {
			vs[i] = g.AddVertex("", int64(1+rng.Intn(9)))
		}
		// A register-rich ring keeps every cycle legal, plus random chords.
		for i := 0; i < n; i++ {
			g.AddEdge(vs[i], vs[(i+1)%n], int32(1+rng.Intn(2)))
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(vs[u], vs[v], int32(1+rng.Intn(3)))
		}
		g.AddEdge(Host, vs[0], 1)
		g.AddEdge(vs[n-1], Host, 1)

		wd := mustWD(t, g)
		phi, r, err := g.MinPeriod(wd, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := g.CheckLegal(r); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, err := g.Period(r)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got > phi {
			t.Fatalf("iter %d: achieved %d > reported %d", iter, got, phi)
		}
		// No candidate strictly below phi may be feasible.
		for _, c := range wd.Candidates() {
			if c < phi {
				if _, ok := g.Feasible(c, wd, nil); ok {
					t.Fatalf("iter %d: period %d feasible below reported min %d", iter, c, phi)
				}
			}
		}
	}
}
