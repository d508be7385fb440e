package graph

import (
	"context"
	"math/rand"
	"testing"
)

func TestLazyMatchesDenseOnCorrelator(t *testing.T) {
	g := correlator()
	phiDense, _, err := g.MinPeriod(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	phiLazy, r, err := g.MinPeriodLazy(context.Background(), nil, nil, NewProbeLadder())
	if err != nil {
		t.Fatal(err)
	}
	if phiLazy != phiDense {
		t.Errorf("lazy min period = %d, dense = %d", phiLazy, phiDense)
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	if p, _ := g.Period(r); p > phiLazy {
		t.Errorf("achieved %d > reported %d", p, phiLazy)
	}
}

// Lazy and dense minperiod must agree on random graphs, with and without
// bounds.
func TestLazyMatchesDenseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		g := New()
		n := 4 + rng.Intn(14)
		vs := make([]VertexID, n)
		for i := range vs {
			vs[i] = g.AddVertex("", int64(1+rng.Intn(9)))
		}
		for i := 0; i < n; i++ {
			g.AddEdge(vs[i], vs[(i+1)%n], int32(1+rng.Intn(2)))
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			g.AddEdge(vs[u], vs[v], int32(1+rng.Intn(3)))
		}
		g.AddEdge(Host, vs[0], 1)
		g.AddEdge(vs[n-1], Host, 1)

		var bounds *Bounds
		if rng.Intn(2) == 0 {
			bounds = NewBounds(g.NumVertices())
			for v := 1; v < g.NumVertices(); v++ {
				bounds.Min[v], bounds.Max[v] = int32(-1-rng.Intn(2)), int32(1+rng.Intn(2))
			}
		}
		phiDense, _, err := g.MinPeriod(nil, bounds)
		if err != nil {
			t.Fatalf("iter %d: dense: %v", iter, err)
		}
		phiLazy, r, err := g.MinPeriodLazy(context.Background(), bounds, nil, NewProbeLadder())
		if err != nil {
			t.Fatalf("iter %d: lazy: %v", iter, err)
		}
		if phiLazy != phiDense {
			t.Fatalf("iter %d: lazy %d != dense %d", iter, phiLazy, phiDense)
		}
		if err := g.CheckLegal(r); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := bounds.Check(r); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestCutPoolFiltering(t *testing.T) {
	p := &CutPool{}
	p.Add([]Cut{
		{Constraint{Y: 1, X: 2, B: 3}, 100},
		{Constraint{Y: 2, X: 3, B: 1}, 50},
	})
	if got := len(p.ForPeriod(75)); got != 1 {
		t.Errorf("cuts at phi=75: %d, want 1", got)
	}
	if got := len(p.ForPeriod(10)); got != 2 {
		t.Errorf("cuts at phi=10: %d, want 2", got)
	}
	if got := len(p.ForPeriod(100)); got != 0 {
		t.Errorf("cuts at phi=100: %d, want 0", got)
	}
}
