package retime

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/oracle"
	"mcretiming/internal/xc4000"
)

// TestMinAreaPathIndependent checks that a minarea solve returns one
// retiming whatever state it starts from: an empty cut pool, the pool of the
// minperiod search, or a Session resumed from a solve at another period
// under looser bounds (cut arcs dropped, flow re-routed, bound arcs added).
// On small graphs that retiming is also the dense oracle's.
func TestMinAreaPathIndependent(t *testing.T) {
	ctx := context.Background()
	for _, p := range gen.Profiles {
		c, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c))
		if err != nil {
			t.Fatal(err)
		}
		m, err := mcgraph.Build(mapped)
		if err != nil {
			t.Fatal(err)
		}
		info, err := m.ComputeBoundsCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		g, bounds, err := m.AreaGraph(ctx, info)
		if err != nil {
			t.Fatal(err)
		}
		checkPathIndependent(t, p.Name, g, bounds, false)
	}
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 60; iter++ {
		g := graph.New()
		n := 3 + rng.Intn(7)
		vs := make([]graph.VertexID, n)
		for i := range vs {
			vs[i] = g.AddVertex("", int64(1+rng.Intn(5)))
		}
		for i := 0; i < n; i++ {
			g.AddEdge(vs[i], vs[(i+1)%n], int32(1+rng.Intn(2)))
		}
		for k := 0; k < 4; k++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddEdge(vs[u], vs[v], int32(rng.Intn(3)))
			}
		}
		g.AddEdge(graph.Host, vs[0], 1)
		g.AddEdge(vs[n-1], graph.Host, 1)
		if _, err := g.Period(nil); err != nil {
			continue
		}
		bounds := graph.NewBounds(g.NumVertices())
		for v := 1; v < g.NumVertices(); v++ {
			bounds.Min[v], bounds.Max[v] = -int32(1+rng.Intn(3)), int32(1+rng.Intn(3))
		}
		checkPathIndependent(t, "random", g, bounds, true)
	}
}

// checkPathIndependent solves g cold at its minimum period, caps the upper
// bound of every vertex that solve moved backward one step short of it (as a
// §5.2 conflict does), and at the new minimum period and at a period halfway
// to the original one compares the resumed session with cold solves from an
// empty pool and from the minperiod pool — and, if dense, with the oracle.
func checkPathIndependent(t *testing.T, name string, g *graph.Graph, bounds *graph.Bounds, dense bool) {
	t.Helper()
	ctx := context.Background()
	phi0, _, err := g.MinPeriodLazy(ctx, bounds, nil, graph.NewProbeLadder())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var ss Session
	r0, err := ss.MinArea(ctx, g, phi0, bounds, nil, Limits{})
	if err != nil {
		t.Fatalf("%s: first solve: %v", name, err)
	}
	tight := bounds.Clone()
	for v, rv := range r0 {
		if rv > 0 && rv-1 >= tight.Min[v] {
			tight.Max[v] = rv - 1
		}
	}
	pool := &graph.CutPool{}
	phi1, _, err := g.MinPeriodLazy(ctx, tight, pool, graph.NewProbeLadder())
	if err != nil {
		t.Fatalf("%s: tightened minperiod: %v", name, err)
	}
	orig, err := g.Period(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []int64{phi1, phi1 + (orig-phi1)/2} {
		flow := ss.s
		resumed, err := ss.MinArea(ctx, g, phi, tight, nil, Limits{})
		if err != nil {
			t.Fatalf("%s at %d: resumed: %v", name, phi, err)
		}
		if ss.s != flow {
			t.Fatalf("%s at %d: the session solved cold instead of resuming", name, phi)
		}
		empty, err := MinAreaLazy(ctx, g, phi, tight, nil, Limits{})
		if err != nil {
			t.Fatalf("%s at %d: empty pool: %v", name, phi, err)
		}
		seeded, err := MinAreaLazy(ctx, g, phi, tight, graph.NewCutPool(pool.Snapshot()), Limits{})
		if err != nil {
			t.Fatalf("%s at %d: minperiod pool: %v", name, phi, err)
		}
		if !slices.Equal(resumed, empty) || !slices.Equal(seeded, empty) {
			t.Fatalf("%s at %d: retimings differ:\nresumed %v\nempty   %v\nseeded  %v", name, phi, resumed, empty, seeded)
		}
		if !dense {
			continue
		}
		want, err := oracle.MinAreaDense(g, nil, phi, tight)
		if err != nil {
			t.Fatalf("%s at %d: dense: %v", name, phi, err)
		}
		if !slices.Equal(empty, want) {
			t.Fatalf("%s at %d: lazy %v, dense %v", name, phi, empty, want)
		}
	}
}
