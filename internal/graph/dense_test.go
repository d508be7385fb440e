package graph_test

// Production solvers against the independent dense references of
// internal/oracle: the lazy minimum-period search, the streamed candidate
// periods and the ladder's infeasibility certificates.

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mcretiming/internal/graph"
	"mcretiming/internal/oracle"
)

func TestLazyMatchesDenseOnCorrelator(t *testing.T) {
	g := graph.Correlator()
	phiDense, _, err := oracle.MinPeriod(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	phiLazy, r, err := g.MinPeriodLazy(context.Background(), nil, nil, graph.NewProbeLadder())
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
		g := graph.New()
		n := 4 + rng.Intn(14)
		vs := make([]graph.VertexID, n)
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
		g.AddEdge(graph.Host, vs[0], 1)
		g.AddEdge(vs[n-1], graph.Host, 1)

		var bounds *graph.Bounds
		if rng.Intn(2) == 0 {
			bounds = graph.NewBounds(g.NumVertices())
			for v := 1; v < g.NumVertices(); v++ {
				bounds.Min[v], bounds.Max[v] = int32(-1-rng.Intn(2)), int32(1+rng.Intn(2))
			}
		}
		phiDense, _, err := oracle.MinPeriod(g, nil, bounds)
		if err != nil {
			t.Fatalf("iter %d: dense: %v", iter, err)
		}
		phiLazy, r, err := g.MinPeriodLazy(context.Background(), bounds, nil, graph.NewProbeLadder())
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

// The streamed candidate generator must reproduce the dense matrices'
// candidate list exactly (cutoff 0) and its suffix at any cutoff.
func TestCandidatePeriodsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for iter := 0; iter < 30; iter++ {
		g := graph.RandomSolvableGraph(rng)
		dense := mustWD(t, g).Candidates()
		got, err := g.CandidatePeriods(ctx, 0)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !slices.Equal(got, dense) {
			t.Fatalf("iter %d: streamed %v != dense %v", iter, got, dense)
		}
		cutoff := g.MaxDelay()
		got, err = g.CandidatePeriods(ctx, cutoff)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		var want []int64
		for _, d := range dense {
			if d >= cutoff {
				want = append(want, d)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d: pruned %v != dense suffix %v (cutoff %d)", iter, got, want, cutoff)
		}
	}
}

// Certificate soundness: the infeasibility certificate lets the binary search
// jump its lower bound past unprobed periods, so the one thing it must never
// do is skip a feasible one. For random graphs the certified minimum must be
// the dense oracle's, and the period just below it must still probe
// infeasible on the cold reference path.
func TestCertificateNeverSkipsFeasible(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 120; iter++ {
		g := graph.RandLadderGraph(rng, 1)
		phiDense, _, err := oracle.MinPeriod(g, nil, nil)
		if err != nil {
			t.Fatalf("iter %d: dense: %v", iter, err)
		}
		phi, r, err := g.MinPeriodLazy(ctx, nil, nil, graph.NewProbeLadder())
		if err != nil {
			t.Fatalf("iter %d: warm: %v", iter, err)
		}
		if phi != phiDense {
			t.Fatalf("iter %d: certified minimum %d, dense oracle %d", iter, phi, phiDense)
		}
		if err := g.CheckLegal(r); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if p, _ := g.Period(r); p > phi {
			t.Fatalf("iter %d: achieved %d > reported %d", iter, p, phi)
		}
		if _, ok, err := g.FeasibleLazy(ctx, phi-1, nil, &graph.CutPool{}, nil); err != nil || ok {
			t.Fatalf("iter %d: period %d feasible below the certified minimum %d (err %v)", iter, phi-1, phi, err)
		}
	}
}
