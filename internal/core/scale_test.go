package core

import (
	"context"
	"os"
	"slices"
	"testing"
	"time"

	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/mcgraph"
)

// retimeScale runs the full MinAreaAtMinPeriod flow on a scale-family
// pipeline and fails if any dense W/D matrix was materialized: the matrix-
// free engine's defining property at scale, enforced through the ComputeWD
// count hook. Returns the report for shape assertions.
func retimeScale(t *testing.T, width, stages int) *Report {
	t.Helper()
	c, err := gen.ScalePipeline(1, width, stages, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := graph.WDComputeCount()
	out, rep, err := Retime(c, Options{Objective: MinAreaAtMinPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("no output circuit")
	}
	if d := graph.WDComputeCount() - before; d != 0 {
		t.Fatalf("solve materialized %d dense W/D matrices; the sparse engine must not allocate any", d)
	}
	// Alternating depth-1/depth-3 stages: the as-built critical path is three
	// gate levels, the balanced optimum two — retiming must improve the
	// period.
	if rep.PeriodAfter >= rep.PeriodBefore {
		t.Fatalf("period %d -> %d: scale pipeline was not improved", rep.PeriodBefore, rep.PeriodAfter)
	}
	return rep
}

// TestScaleSmoke is the always-on scale guard: a few-thousand-vertex pipeline
// solves matrix-free. Cheap enough for every `go test` run.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short")
	}
	retimeScale(t, 16, 200)
}

// TestScaleLarge is the ≥50k-vertex scale acceptance run, gated behind
// MCRETIMING_SCALE=1 (the CI scale-smoke job sets it): minperiod + minarea +
// relocation on a 64×600 pipeline — ~76.8k gates, so ≥76.8k solver vertices —
// with zero dense W/D allocations. A dense engine would need ~70 GB for the
// two V² int64/int32 matrices here; the sparse engine's working set is
// O(V+E), and the whole flow runs in seconds (the CLI retimes a 100k-gate
// pipeline in about a minute on one core).
func TestScaleLarge(t *testing.T) {
	if os.Getenv("MCRETIMING_SCALE") == "" {
		t.Skip("set MCRETIMING_SCALE=1 to run the ≥50k-vertex scale acceptance test")
	}
	rep := retimeScale(t, 64, 600)
	t.Logf("scale: period %d -> %d ps, regs %d -> %d",
		rep.PeriodBefore, rep.PeriodAfter, rep.RegsBefore, rep.RegsAfter)
}

// TestScaleWarmLadder is the warm-start acceptance run, gated behind
// MCRETIMING_SCALE=1 like TestScaleLarge. On a deep 32×1200 pipeline (~77k
// vertices) it solves minperiod over the §4.1 bounds and §4.2 sharing graph
// twice: cold (every binary-search probe re-seeds SPFA) and warm (one probe
// ladder across the search, the production path). Depth is what separates
// the two: a cold probe re-propagates labels through the whole pipeline,
// while a warm probe only relaxes the delta from the previous rung. The warm
// search must be bit-identical to the cold one, pay exactly one cold SPFA
// start, and run at least 2× faster. Both sides run in the same process, so
// the speedup floor holds on any host; each side is best of two.
func TestScaleWarmLadder(t *testing.T) {
	if os.Getenv("MCRETIMING_SCALE") == "" {
		t.Skip("set MCRETIMING_SCALE=1 to run the warm-ladder scale acceptance test")
	}
	const minSpeedup = 2.0
	c, err := gen.ScalePipeline(1, 32, 1200, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mcgraph.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	info, err := m.ComputeBoundsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g, bounds, err := m.AreaGraph(ctx, info)
	if err != nil {
		t.Fatal(err)
	}

	type solve struct {
		phi    int64
		r      []int32
		starts int64
		wall   time.Duration
	}
	bestOf2 := func(newLad func() *graph.ProbeLadder) solve {
		var best solve
		for i := 0; i < 2; i++ {
			cs0 := graph.ColdStartCount()
			t0 := time.Now()
			phi, r, err := g.MinPeriodLazy(ctx, bounds, nil, newLad())
			if err != nil {
				t.Fatal(err)
			}
			s := solve{phi: phi, r: r, starts: graph.ColdStartCount() - cs0, wall: time.Since(t0)}
			if i == 0 || s.wall < best.wall {
				best = s
			}
		}
		return best
	}
	cold := bestOf2(func() *graph.ProbeLadder { return nil })
	warm := bestOf2(graph.NewProbeLadder)
	speedup := float64(cold.wall) / float64(warm.wall)
	t.Logf("warm ladder: %d vertices, phi=%d ps, cold=%v warm=%v speedup=%.2fx, cold SPFA starts %d -> %d",
		g.NumVertices(), cold.phi, cold.wall, warm.wall, speedup, cold.starts, warm.starts)

	if warm.phi != cold.phi || !slices.Equal(warm.r, cold.r) {
		t.Fatalf("warm minperiod diverged from cold: phi %d vs %d", warm.phi, cold.phi)
	}
	if warm.starts != 1 {
		t.Fatalf("warm search performed %d cold SPFA starts, want exactly 1", warm.starts)
	}
	if speedup < minSpeedup {
		t.Fatalf("warm minperiod speedup %.2fx below the %.1fx floor (cold %v, warm %v)",
			speedup, minSpeedup, cold.wall, warm.wall)
	}
}

// TestScaleHuge is the 10⁶-vertex acceptance run, gated behind
// MCRETIMING_SCALE=1 like TestScaleLarge. On a million-vertex scale pipeline
// it runs the delay-independent model half — the §4.1 bounds pass
// (ComputeBoundsCtx) and the §4.2 sharing graph (AreaGraph) — and then solves
// minperiod warm-started and cold, requiring the two bit-identical and the
// warm search to pay exactly one cold SPFA start, under a wall-clock budget that keeps the CI
// scale-smoke job honest. The bounds pass moves whole register-layer
// prefixes per vertex, so its work tracks the vertex and edge count rather
// than vertices × pipeline depth; its wall time is logged.
//
// Two deliberate scopings:
//
//   - The minperiod solves run on the plain projection (ToGraph, nil bounds),
//     not the full Retime flow, so warm and cold are compared on exactly
//     the graph the solve core scales over.
//   - A wide-shallow pipeline (2000×250), not a deep one: SPFA label
//     displacement grows with pipeline depth under nil bounds, so a 100×5000
//     pipeline spends minutes per probe moving labels thousands of steps.
//     Wide-and-shallow is the shape that isolates vertex-count scaling.
func TestScaleHuge(t *testing.T) {
	if os.Getenv("MCRETIMING_SCALE") == "" {
		t.Skip("set MCRETIMING_SCALE=1 to run the 10⁶-vertex scale acceptance test")
	}
	const budget = 10 * time.Minute
	start := time.Now()
	c, err := gen.ScalePipeline(1, 2000, 250, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mcgraph.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	g := m.ToGraph()
	if n := g.NumVertices(); n < 1_000_000 {
		t.Fatalf("profile has %d vertices, want ≥ 10⁶", n)
	}
	ctx := context.Background()

	t0 := time.Now()
	info, err := m.ComputeBoundsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	boundsWall := time.Since(t0)
	ag, _, err := m.AreaGraph(ctx, info)
	if err != nil {
		t.Fatal(err)
	}
	if ag.NumVertices() < g.NumVertices() {
		t.Fatalf("sharing graph has %d vertices, fewer than the projection's %d", ag.NumVertices(), g.NumVertices())
	}
	modelWall := time.Since(t0)

	cs0 := graph.ColdStartCount()
	t0 = time.Now()
	phiW, rW, err := g.MinPeriodLazy(ctx, nil, nil, graph.NewProbeLadder())
	if err != nil {
		t.Fatal(err)
	}
	warmWall := time.Since(t0)
	if d := graph.ColdStartCount() - cs0; d != 1 {
		t.Fatalf("warm search performed %d cold SPFA starts, want exactly 1", d)
	}

	t0 = time.Now()
	phiC, rC, err := g.MinPeriodLazy(ctx, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldWall := time.Since(t0)
	if phiW != phiC || !slices.Equal(rW, rC) {
		t.Fatalf("warm minperiod diverged from cold: phi %d vs %d", phiW, phiC)
	}

	total := time.Since(start)
	t.Logf("huge: %d vertices, %d steps possible, bounds=%v bounds+share=%v, phi=%d ps, warm=%v cold=%v total=%v",
		g.NumVertices(), info.StepsPossible, boundsWall, modelWall, phiC, warmWall, coldWall, total)
	if total > budget {
		t.Fatalf("10⁶-vertex run took %v, budget %v", total, budget)
	}
}
