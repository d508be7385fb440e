package graph

import (
	"context"
	"math/rand"
	"slices"
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

// The streamed candidate generator must reproduce the dense matrices'
// candidate list exactly (cutoff 0) and its suffix at any cutoff.
func TestCandidatePeriodsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for iter := 0; iter < 30; iter++ {
		g := randomSolvableGraph(rng)
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

// The minimum feasible period is never below MaxDelay, so pruning candidates
// under it cannot hide the minperiod solution.
func TestCandidateCutoffSound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 20; iter++ {
		g := randomSolvableGraph(rng)
		phi, _, err := g.MinPeriodLazy(nil, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if dmax := g.MaxDelay(); phi < dmax {
			t.Fatalf("iter %d: min period %d below max vertex delay %d", iter, phi, dmax)
		}
	}
}

// WDComputeCount must tick for dense materializations and stay flat across
// the streamed generator — it is the scale-smoke guard's probe.
func TestWDComputeCountHook(t *testing.T) {
	g := randomSolvableGraph(rand.New(rand.NewSource(13)))
	before := WDComputeCount()
	if _, err := g.CandidatePeriods(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if d := WDComputeCount() - before; d != 0 {
		t.Fatalf("CandidatePeriods bumped the dense-compute counter by %d", d)
	}
	mustWD(t, g)
	mustWD(t, g)
	if d := WDComputeCount() - before; d != 2 {
		t.Fatalf("dense-compute counter delta %d, want 2", d)
	}
}
