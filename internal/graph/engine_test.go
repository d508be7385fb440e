package graph

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randomGraph builds a deterministic random retiming graph with n vertices,
// host-adjacent edges, and enough registers to keep it legal.
func randomGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 1; i < n; i++ {
		g.AddVertex("v", int64(1+rng.Intn(9))*1000)
	}
	// A registered ring keeps every vertex on a cycle through the host.
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n), int32(1+rng.Intn(2)))
	}
	// Extra edges only go forward (u < v), so every cycle passes through the
	// registered ring and no zero-weight cycle can arise.
	for i := 0; i < 3*n; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		g.AddEdge(VertexID(u), VertexID(v), int32(rng.Intn(3)))
	}
	return g
}

// TestComputeWDCancellation verifies the dense W/D computation surfaces ctx
// errors.
func TestComputeWDCancellation(t *testing.T) {
	g := randomGraph(4, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.ComputeWD(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// mustWD computes g's dense W/D matrices for a test.
func mustWD(t testing.TB, g *Graph) *WD {
	t.Helper()
	wd, err := g.ComputeWD(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// TestSolveCacheReuse checks the cache memoizes per graph identity and resets
// when asked about a different graph.
func TestSolveCacheReuse(t *testing.T) {
	g1 := randomGraph(6, 60)
	g2 := randomGraph(7, 60)
	c := NewSolveCache(g1)

	wd1, err := c.WD(context.Background(), g1)
	if err != nil {
		t.Fatal(err)
	}
	wd1again, err := c.WD(context.Background(), g1)
	if err != nil {
		t.Fatal(err)
	}
	if wd1 != wd1again {
		t.Fatal("cache recomputed the WD matrices for the same graph")
	}
	if c.Pool(g1) != c.Pool(g1) {
		t.Fatal("cache returned different pools for the same graph")
	}

	base := c.Base(g1, nil)
	if len(base) != len(g1.Edges) {
		t.Fatalf("base has %d constraints, want %d", len(base), len(g1.Edges))
	}
	bounds := NewBounds(g1.NumVertices())
	bounds.Min[1], bounds.Max[1] = -1, 2
	withBounds := c.Base(g1, bounds)
	if len(withBounds) != len(base)+2 {
		t.Fatalf("bounds base has %d constraints, want %d", len(withBounds), len(base)+2)
	}
	// The cached circuit prefix must match the uncached constraint builder.
	direct := g1.BaseConstraints(bounds)
	if len(direct) != len(withBounds) {
		t.Fatalf("cached base has %d constraints, direct %d", len(withBounds), len(direct))
	}
	for i := range direct {
		if direct[i] != withBounds[i] {
			t.Fatalf("constraint %d: cached %+v, direct %+v", i, withBounds[i], direct[i])
		}
	}

	wd2, err := c.WD(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	if wd2 == wd1 {
		t.Fatal("cache leaked WD matrices across graphs")
	}
}

// TestEngineLazySolversMatchSerial runs the lazy minperiod solver with and
// without an engine cache and demands identical results.
func TestEngineLazySolversMatchSerial(t *testing.T) {
	for _, seed := range []int64{8, 9} {
		g := randomGraph(seed, 100)
		phi0, r0, err := g.MinPeriodLazy(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := &Engine{Cache: NewSolveCache(g)}
		phi, r, err := g.MinPeriodLazyEng(context.Background(), nil, eng.Cache.Pool(g), eng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if phi != phi0 {
			t.Fatalf("seed %d: period %d, want %d", seed, phi, phi0)
		}
		for i := range r0 {
			if r[i] != r0[i] {
				t.Fatalf("seed %d: r[%d]=%d, want %d", seed, i, r[i], r0[i])
			}
		}
	}
}
