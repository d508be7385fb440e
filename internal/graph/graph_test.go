package graph

import "testing"

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

// solveDifference runs the production SPFA (solveDifferenceBuf over fresh
// scratch) and copies the solution out of the scratch-owned buffer.
func solveDifference(n int, cons []Constraint) ([]int32, bool) {
	r, ok := solveDifferenceBuf(n, cons, newSPFAScratch(n))
	if !ok {
		return nil, false
	}
	return append([]int32(nil), r...), true
}

func TestSolveDifferenceSimple(t *testing.T) {
	// r0 - r1 <= -1, r1 - r0 <= 5 : feasible (e.g. r0 = r1 - 1).
	cons := []Constraint{{Y: 1, X: 0, B: -1}, {Y: 0, X: 1, B: 5}}
	r, ok := solveDifference(2, cons)
	if !ok {
		t.Fatal("feasible system reported infeasible")
	}
	if !(r[0]-r[1] <= -1 && r[1]-r[0] <= 5) {
		t.Errorf("solution %v violates constraints", r)
	}
	// Adding r1 - r0 <= 0 closes a cycle of weight -1: infeasible.
	cons = append(cons, Constraint{Y: 0, X: 1, B: 0})
	if _, ok := solveDifference(2, cons); ok {
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
	r, ok := solveDifference(2, cons)
	if !ok {
		t.Fatal("feasible system with parallel constraints reported infeasible")
	}
	if r[0] != 0 || r[1] != -4 {
		t.Errorf("solution %v, want [0 -4]", r)
	}
	// Closing the loop with r0 - r1 <= 3 makes a cycle of weight -1.
	if _, ok := solveDifference(2, append(cons, Constraint{Y: 1, X: 0, B: 3})); ok {
		t.Fatal("infeasible system reported feasible")
	}
}
