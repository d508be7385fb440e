//go:build !race

package retime

import (
	"context"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/mcgraph"
)

// TestAreaSolverAllocsBounded checks that building the minarea network
// costs a fixed number of allocations however many arcs it holds: every
// node's arc list, the pool cuts applying at φ included, is carved out of
// one array sized once. The race detector allocates on its own, so the file
// is skipped under -race.
func TestAreaSolverAllocsBounded(t *testing.T) {
	ctx := context.Background()
	for _, stages := range []int{20, 300} {
		c, err := gen.ScalePipeline(1, 16, stages, gen.ClassMix{Plain: 1, EN: 1})
		if err != nil {
			t.Fatal(err)
		}
		m, err := mcgraph.Build(c)
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
		pool := &graph.CutPool{}
		phi, _, err := g.MinPeriodLazy(ctx, bounds, pool, graph.NewProbeLadder())
		if err != nil {
			t.Fatal(err)
		}
		ss := new(Session)
		allocs := testing.AllocsPerRun(5, func() { ss.newAreaSolver(g, bounds, pool, phi) })
		t.Logf("16×%d: %d vertices, %d edges, %d pool cuts at φ: %.0f allocations",
			stages, g.NumVertices(), len(g.Edges), len(ss.cuts), allocs)
		if allocs > 16 {
			t.Fatalf("16×%d: building the minarea network took %.0f allocations, want at most 16", stages, allocs)
		}
	}
}
