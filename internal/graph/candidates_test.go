package graph

import (
	"context"
	"math/rand"
	"testing"
)

// randomSolvableGraph builds a small random retiming graph with a host loop,
// retrying until it has a well-defined period.
func randomSolvableGraph(rng *rand.Rand) *Graph {
	for {
		g := New()
		n := 4 + rng.Intn(12)
		vs := make([]VertexID, n)
		for i := range vs {
			vs[i] = g.AddVertex("", int64(1+rng.Intn(9)))
		}
		for i := 0; i < n; i++ {
			g.AddEdge(vs[i], vs[(i+1)%n], int32(1+rng.Intn(2)))
		}
		for k := 0; k < n/2; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(vs[u], vs[v], int32(rng.Intn(3)))
			}
		}
		g.AddEdge(Host, vs[0], 1)
		g.AddEdge(vs[n-1], Host, 1)
		if _, err := g.Period(nil); err == nil {
			return g
		}
	}
}

// The minimum feasible period is never below MaxDelay, so pruning candidates
// under it cannot hide the minperiod solution.
func TestCandidateCutoffSound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 20; iter++ {
		g := randomSolvableGraph(rng)
		phi, _, err := g.MinPeriodLazy(context.Background(), nil, nil, NewProbeLadder())
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if dmax := g.MaxDelay(); phi < dmax {
			t.Fatalf("iter %d: min period %d below max vertex delay %d", iter, phi, dmax)
		}
	}
}
