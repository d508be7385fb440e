package retime

import (
	"context"
	"math/rand"
	"testing"

	"mcretiming/internal/graph"
)

// Lazy minarea must reach the same optimal register count as the dense
// W/D-matrix formulation.
func TestLazyMinAreaMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		g := graph.New()
		n := 3 + rng.Intn(6)
		vs := make([]graph.VertexID, n)
		for i := range vs {
			vs[i] = g.AddVertex("", int64(1+rng.Intn(5)))
		}
		for i := 0; i < n; i++ {
			g.AddEdge(vs[i], vs[(i+1)%n], int32(1+rng.Intn(2)))
		}
		for k := 0; k < 3; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(vs[u], vs[v], int32(rng.Intn(3)))
			}
		}
		g.AddEdge(graph.Host, vs[0], 1)
		g.AddEdge(vs[n-1], graph.Host, 1)
		if _, err := g.Period(nil); err != nil {
			continue
		}
		var bounds *graph.Bounds
		if rng.Intn(2) == 0 {
			bounds = graph.NewBounds(g.NumVertices())
			for v := 1; v < g.NumVertices(); v++ {
				bounds.Min[v], bounds.Max[v] = -2, 2
			}
		}
		wd := denseWD(t, g)
		phi, _, err := g.MinPeriod(wd, bounds)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		rDense, err := MinAreaDense(g, wd, phi, bounds)
		if err != nil {
			t.Fatalf("iter %d: dense: %v", iter, err)
		}
		rLazy, err := MinAreaLazy(context.Background(), g, phi, bounds, nil, Limits{})
		if err != nil {
			t.Fatalf("iter %d: lazy: %v", iter, err)
		}
		if got, want := SharedRegCount(g, rLazy), SharedRegCount(g, rDense); got != want {
			t.Fatalf("iter %d: lazy count %d != dense count %d", iter, got, want)
		}
		if p, err := g.Period(rLazy); err != nil || p > phi {
			t.Fatalf("iter %d: lazy result period %d (err %v), want <= %d", iter, p, err, phi)
		}
	}
}
