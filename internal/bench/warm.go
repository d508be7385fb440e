package bench

import (
	"context"
	"fmt"
	"slices"
	"time"

	"mcretiming/internal/gen"
	"mcretiming/internal/graph"
	"mcretiming/internal/mcgraph"
)

// WarmPerf is the warm-start measurement: minperiod on the ≥50k-vertex
// scale-pipeline profile, solved cold (every binary-search probe re-seeds
// SPFA) and warm (one probe ladder across the search, the production path).
// The two must agree bit for bit; the speedup column is warm vs cold.
type WarmPerf struct {
	Vertices int   `json:"vertices"`
	PeriodPS int64 `json:"period_ps"`
	// BoundsNS is the ComputeBoundsCtx + AreaGraph model time, measured
	// once — it is common to every engine and excluded from the solve walls.
	BoundsNS int64   `json:"bounds_ns"`
	ColdNS   int64   `json:"cold_ns"`
	WarmNS   int64   `json:"warm_ns"`
	Speedup  float64 `json:"speedup"` // cold / warm
	// Identical reports the warm retiming matched the cold reference exactly.
	Identical bool `json:"identical"`
	// SPFAColdStarts counts full (cold) SPFA solves per search: the warm
	// search performs exactly one no matter how many probes it runs; the cold
	// search pays one per probe.
	SPFAColdStartsCold int64 `json:"spfa_cold_starts_cold"`
	SPFAColdStartsWarm int64 `json:"spfa_cold_starts_warm"`
}

// warmProfile builds the ≥50k-vertex minperiod profile: a scale-family
// pipeline like TestScaleLarge's, but deep (1200 stages) rather than wide.
// Depth is what separates the engines: every cold probe re-propagates labels
// through the whole pipeline depth, while a warm probe only relaxes the delta
// from the previous rung, so the deep shape measures the re-propagation cost
// the ladder exists to eliminate (the wide-shallow shape understates it).
const (
	warmProfileWidth  = 32
	warmProfileStages = 1200
)

// MeasureWarmCtx measures cold vs warm minperiod on the 50k-class profile.
// Each run is best-of-2 with a private cut pool, so no state leaks between
// the variants.
func MeasureWarmCtx(ctx context.Context) (*WarmPerf, error) {
	c, err := gen.ScalePipeline(1, warmProfileWidth, warmProfileStages, gen.ClassMix{Plain: 1, EN: 1})
	if err != nil {
		return nil, fmt.Errorf("bench: warm profile: %w", err)
	}
	m, err := mcgraph.Build(c)
	if err != nil {
		return nil, fmt.Errorf("bench: warm profile: %w", err)
	}
	t0 := time.Now()
	info, err := m.ComputeBoundsCtx(ctx)
	if err != nil {
		return nil, err
	}
	g, bounds, err := m.AreaGraph(ctx, info)
	if err != nil {
		return nil, err
	}
	wp := &WarmPerf{Vertices: g.NumVertices(), BoundsNS: time.Since(t0).Nanoseconds()}

	const reps = 2
	type result struct {
		phi int64
		r   []int32
	}
	run := func(eng func() *graph.Engine) (result, int64, time.Duration, error) {
		var res result
		var starts int64
		wall, err := bestOf(reps, func() error {
			cs0 := graph.ColdStartCount()
			phi, r, err := g.MinPeriodLazyEng(ctx, bounds, nil, eng())
			if err != nil {
				return err
			}
			res = result{phi: phi, r: r}
			starts = graph.ColdStartCount() - cs0
			return nil
		})
		return res, starts, wall, err
	}

	cold, coldStarts, coldWall, err := run(func() *graph.Engine {
		return &graph.Engine{ColdProbes: true}
	})
	if err != nil {
		return nil, err
	}
	warm, warmStarts, warmWall, err := run(func() *graph.Engine {
		return &graph.Engine{Ladder: graph.NewProbeLadder()}
	})
	if err != nil {
		return nil, err
	}
	wp.PeriodPS = cold.phi
	wp.ColdNS = coldWall.Nanoseconds()
	wp.WarmNS = warmWall.Nanoseconds()
	wp.Speedup = float64(coldWall) / float64(warmWall)
	wp.Identical = cold.phi == warm.phi && slices.Equal(cold.r, warm.r)
	wp.SPFAColdStartsCold = coldStarts
	wp.SPFAColdStartsWarm = warmStarts
	return wp, nil
}
