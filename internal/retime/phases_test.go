package retime_test

import (
	"context"
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/retime"
	"mcretiming/internal/trace"
	"mcretiming/internal/xc4000"
)

// TestMinAreaFlowPhases runs MinAreaLazy on the sharing graph of each mapped
// Table-2 profile and checks the flow's phase counter against its
// augmenting-path counter: every phase that routes flow pushes at least one
// path, so a solve with paths has between one phase and one phase per path.
func TestMinAreaFlowPhases(t *testing.T) {
	ctx := context.Background()
	var augs, phases int64
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
		pool := &graph.CutPool{}
		phi, _, err := g.MinPeriodLazy(ctx, bounds, pool, graph.NewProbeLadder())
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		r, err := retime.MinAreaLazy(trace.With(ctx, rec), g, phi, bounds, pool, retime.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := g.CheckLegal(r); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		a, ph := rec.Counter("flow-augmentations"), rec.Counter("flow-phases")
		if a > 0 && (ph < 1 || ph > a) {
			t.Errorf("%s: %d flow phases for %d augmenting paths", p.Name, ph, a)
		}
		t.Logf("%s: %d augmenting paths in %d phases", p.Name, a, ph)
		augs += a
		phases += ph
	}
	t.Logf("C1–C10: %d augmenting paths in %d phases", augs, phases)
}
