package graph

import (
	"context"
	"slices"

	"mcretiming/internal/trace"
)

// CandidatePeriods streams the candidate clock periods — the sorted distinct
// D(u,v) values over reachable pairs — without materializing the dense W/D
// matrices. Per source it runs the same pruned Dijkstra + tight-DAG
// longest-delay kernel a matrix row uses (sourceRow) and harvests the
// distinct delays into one set: O(V) memory instead of the O(V²) matrices,
// same asymptotic time.
//
// minDelay is the early cutoff: path delays below it are pruned at harvest.
// The sound choice for a minimum-period caller is max_v d(v) — no feasible
// period can be smaller than the largest single-vertex delay, because the
// critical path through that vertex already costs d(v) — which typically
// drops the long tail of tiny single-gate delays. Pass 0 to keep everything;
// then the result equals the Candidates of ComputeWD exactly.
//
// ctx is polled between sources.
func (g *Graph) CandidatePeriods(ctx context.Context, minDelay int64) ([]int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumVertices()
	sc := g.newWDScratch()
	seen := make(map[int64]struct{})
	for u := 0; u < n; u++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g.sourceRow(VertexID(u), sc)
		for v := 0; v < n; v++ {
			if sc.dist[v] == InfW {
				continue
			}
			if d := sc.delay[v]; d >= minDelay {
				seen[d] = struct{}{}
			}
		}
	}
	out := make([]int64, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	slices.Sort(out)
	trace.From(ctx).Add("candidate-periods", int64(len(out)))
	return out, nil
}

// MaxDelay returns max_v d(v), the early-cutoff bound CandidatePeriods
// callers use: no feasible clock period can be below it.
func (g *Graph) MaxDelay() int64 {
	var dmax int64
	for _, d := range g.Delay {
		if d > dmax {
			dmax = d
		}
	}
	return dmax
}
