package graph

import (
	"context"
	"math/rand"
	"testing"
)

func TestFEASCorrelator(t *testing.T) {
	g := correlator()
	if _, ok := g.FEAS(12); ok {
		t.Error("FEAS accepted period 12 (optimum is 13)")
	}
	r, ok := g.FEAS(13)
	if !ok {
		t.Fatal("FEAS rejected the optimal period 13")
	}
	if err := g.CheckLegal(r); err != nil {
		t.Fatal(err)
	}
	if p, _ := g.Period(r); p > 13 {
		t.Errorf("achieved %d, want <= 13", p)
	}
	phi, _, err := g.MinPeriodFEAS(nil)
	if err != nil {
		t.Fatal(err)
	}
	if phi != 13 {
		t.Errorf("FEAS min period = %d, want 13", phi)
	}
}

// All three minperiod engines must agree on unbounded problems.
func TestThreeEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 50; iter++ {
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
			g.AddEdge(vs[u], vs[v], int32(1+rng.Intn(3)))
		}
		g.AddEdge(Host, vs[0], 1)
		g.AddEdge(vs[n-1], Host, 1)

		wd := mustWD(t, g)
		phiDense, _, err := g.MinPeriod(wd, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		phiFEAS, _, err := g.MinPeriodFEAS(wd)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		phiLazy, _, err := g.MinPeriodLazy(context.Background(), nil, nil, NewProbeLadder())
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if phiDense != phiFEAS || phiDense != phiLazy {
			t.Fatalf("iter %d: engines disagree: dense=%d FEAS=%d lazy=%d",
				iter, phiDense, phiFEAS, phiLazy)
		}
	}
}
