package graph

import (
	"context"
	"sync"
	"sync/atomic"
)

// SolveCache memoizes the graph-identity-keyed artifacts the solvers
// otherwise recompute on every call: the W/D matrices, the circuit part of
// the base difference constraints, and the period-cut pool. The §5.2
// add-bound-and-re-solve loop and the minperiod→minarea two-phase solve hit
// the same graph many times — only the bounds change between retries — so
// everything keyed purely on the graph is computed once and reused.
//
// The cache is keyed on graph identity (the *Graph pointer) and assumes the
// graph is not mutated while cached — true for the retiming flow, which
// builds its solver graph once per run. Asking a cache about a different
// graph transparently resets it.
//
// All methods are safe for concurrent use.
type SolveCache struct {
	mu      sync.Mutex
	g       *Graph
	wd      *WD
	circuit []Constraint // circuit-only constraints (bounds-independent)
	pool    *CutPool

	wdHits, wdMisses     atomic.Int64
	baseHits, baseMisses atomic.Int64
	warmHits, warmMisses atomic.Int64
}

// CacheStats counts SolveCache lookups: a hit served a memoized artifact, a
// miss computed it. Base counts the circuit-constraint prefix only — the
// bounds suffix is always rebuilt because §5.2 retries tighten bounds. Warm
// counts lazy feasibility probes: a hit restored a ProbeLadder checkpoint
// instead of solving the difference system cold. The fields are additive to
// the mcretiming-perf/v1 schema — older snapshots simply lack them.
type CacheStats struct {
	WDHits     int64 `json:"wd_hits"`
	WDMisses   int64 `json:"wd_misses"`
	BaseHits   int64 `json:"base_hits"`
	BaseMisses int64 `json:"base_misses"`
	WarmHits   int64 `json:"warm_hits,omitempty"`
	WarmMisses int64 `json:"warm_misses,omitempty"`
}

// Hits returns the total lookups served from memoized state.
func (s CacheStats) Hits() int64 { return s.WDHits + s.BaseHits + s.WarmHits }

// Misses returns the total lookups that had to compute.
func (s CacheStats) Misses() int64 { return s.WDMisses + s.BaseMisses + s.WarmMisses }

// Stats returns a snapshot of the cache's hit/miss counters.
func (c *SolveCache) Stats() CacheStats {
	return CacheStats{
		WDHits:     c.wdHits.Load(),
		WDMisses:   c.wdMisses.Load(),
		BaseHits:   c.baseHits.Load(),
		BaseMisses: c.baseMisses.Load(),
		WarmHits:   c.warmHits.Load(),
		WarmMisses: c.warmMisses.Load(),
	}
}

// Process-cumulative counters across every SolveCache, so tooling that can't
// reach the per-run cache instances buried in the flow (mcbench -json) can
// still attribute speedups to cache reuse by sampling before/after a run.
var totalCacheStats struct {
	wdHits, wdMisses, baseHits, baseMisses atomic.Int64
	warmHits, warmMisses                   atomic.Int64
}

// TotalCacheStats returns the process-cumulative SolveCache counters.
func TotalCacheStats() CacheStats {
	return CacheStats{
		WDHits:     totalCacheStats.wdHits.Load(),
		WDMisses:   totalCacheStats.wdMisses.Load(),
		BaseHits:   totalCacheStats.baseHits.Load(),
		BaseMisses: totalCacheStats.baseMisses.Load(),
		WarmHits:   totalCacheStats.warmHits.Load(),
		WarmMisses: totalCacheStats.warmMisses.Load(),
	}
}

// Delta returns s - prev, field-wise: the counters attributable to the work
// between two TotalCacheStats samples.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{
		WDHits:     s.WDHits - prev.WDHits,
		WDMisses:   s.WDMisses - prev.WDMisses,
		BaseHits:   s.BaseHits - prev.BaseHits,
		BaseMisses: s.BaseMisses - prev.BaseMisses,
		WarmHits:   s.WarmHits - prev.WarmHits,
		WarmMisses: s.WarmMisses - prev.WarmMisses,
	}
}

// NewSolveCache returns an empty cache bound to g.
func NewSolveCache(g *Graph) *SolveCache {
	return &SolveCache{g: g, pool: &CutPool{}}
}

// rebind resets the cache when asked about a graph other than the one it was
// built for, so a stale cache can never leak artifacts across graphs.
func (c *SolveCache) rebind(g *Graph) {
	if c.g != g {
		c.g = g
		c.wd = nil
		c.circuit = nil
		c.pool = &CutPool{}
	}
}

// Pool returns the cache's period-cut pool for g, shared by every
// feasibility probe, minperiod search, and minarea solve over the graph.
func (c *SolveCache) Pool(g *Graph) *CutPool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebind(g)
	return c.pool
}

// WD returns the memoized W/D matrices of g, computing them (see ComputeWD)
// on the first call.
func (c *SolveCache) WD(ctx context.Context, g *Graph) (*WD, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebind(g)
	if c.wd == nil {
		wd, err := g.ComputeWD(ctx)
		if err != nil {
			return nil, err
		}
		c.wd = wd
		c.wdMisses.Add(1)
		totalCacheStats.wdMisses.Add(1)
	} else {
		c.wdHits.Add(1)
		totalCacheStats.wdHits.Add(1)
	}
	return c.wd, nil
}

// Base returns the base constraints of g under bounds, reusing the memoized
// circuit part (one constraint per edge — invariant across §5.2 retries) and
// appending the bounds part fresh, since retries tighten bounds. The
// returned slice is newly allocated past the cached prefix; callers may
// append to it.
func (c *SolveCache) Base(g *Graph, bounds *Bounds) []Constraint {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rebind(g)
	if c.circuit == nil {
		c.circuit = g.circuitConstraints()
		c.baseMisses.Add(1)
		totalCacheStats.baseMisses.Add(1)
	} else {
		c.baseHits.Add(1)
		totalCacheStats.baseHits.Add(1)
	}
	return appendBoundsConstraints(c.circuit[:len(c.circuit):len(c.circuit)], g, bounds)
}

// circuitConstraints returns the bounds-independent constraint prefix: one
// r(u) − r(v) ≤ w(e) constraint per edge.
func (g *Graph) circuitConstraints() []Constraint {
	cons := make([]Constraint, 0, len(g.Edges))
	for _, e := range g.Edges {
		cons = append(cons, Constraint{Y: e.To, X: e.From, B: e.W})
	}
	return cons
}

// appendBoundsConstraints appends the §5.1 class-bound constraints of bounds
// (nil = none) to cons and returns the result.
func appendBoundsConstraints(cons []Constraint, g *Graph, bounds *Bounds) []Constraint {
	if bounds == nil {
		return cons
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if lo := bounds.Min[v]; lo != NoLower {
			cons = append(cons, Constraint{Y: VertexID(v), X: Host, B: -lo})
		}
		if hi := bounds.Max[v]; hi != NoUpper {
			cons = append(cons, Constraint{Y: Host, X: VertexID(v), B: hi})
		}
	}
	return cons
}
