package graph

// Engine bundles the execution knobs of the basic-retiming solvers: the
// cross-solve SolveCache and the probe ladder. The zero value and a nil
// *Engine both mean "uncached", which is exactly the historical behavior —
// every solver entry point without an Eng suffix delegates with a nil
// engine.
type Engine struct {
	// Cache, when non-nil, memoizes WD matrices, circuit constraints, and
	// the period-cut pool across solver calls on the same graph.
	Cache *SolveCache
	// Ladder, when non-nil, warm-starts lazy feasibility probes from the
	// last feasible probe's SPFA state (see ProbeLadder). Unlike Cache it is
	// NOT safe for concurrent use — an engine carrying a ladder must serve
	// one solve at a time, which is how the flow already uses engines (one
	// per solve session).
	Ladder *ProbeLadder
	// ColdProbes disables probe warm-starting entirely (MinPeriodLazyEng
	// normally creates a search-private ladder even without one on the
	// engine). It exists for benchmarks and equivalence tests that need the
	// per-probe cold reference path; production flows leave it false.
	ColdProbes bool
}

// ladder returns the engine's probe ladder (nil-safe).
func (e *Engine) ladder() *ProbeLadder {
	if e == nil {
		return nil
	}
	return e.Ladder
}

// noteWarm records a lazy feasibility probe's warm-start outcome on the
// engine's cache counters and the process totals (nil-safe).
func (e *Engine) noteWarm(hit bool) {
	if hit {
		totalCacheStats.warmHits.Add(1)
	} else {
		totalCacheStats.warmMisses.Add(1)
	}
	if e != nil && e.Cache != nil {
		if hit {
			e.Cache.warmHits.Add(1)
		} else {
			e.Cache.warmMisses.Add(1)
		}
	}
}

// base returns the base constraints of g under bounds through the engine's
// cache when present (nil-safe).
func (e *Engine) base(g *Graph, bounds *Bounds) []Constraint {
	if e != nil && e.Cache != nil {
		return e.Cache.Base(g, bounds)
	}
	return g.BaseConstraints(bounds)
}
