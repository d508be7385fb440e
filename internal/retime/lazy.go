package retime

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"mcretiming/internal/graph"
	"mcretiming/internal/mcf"
	"mcretiming/internal/rterr"
	"mcretiming/internal/trace"
)

// Limits bounds the work of one lazy minarea solve. A zero field means the
// package default; a negative one means unlimited. Exhausting either budget
// returns an error wrapping rterr.ErrBudgetExceeded, which the caller can
// treat as "keep the feasible minperiod solution" (the degradation ladder).
type Limits struct {
	// MaxRounds caps the cutting-plane rounds. The loop provably terminates
	// (each round adds at least one violated period cut from a finite set),
	// but the bound is astronomically loose; this keeps a pathological
	// instance diagnosable.
	MaxRounds int
	// FlowAugmentations caps the augmentation steps of each min-cost-flow
	// solve inside a round.
	FlowAugmentations int
}

// Default budgets for Limits zero fields.
const (
	DefaultMaxRounds         = 10000
	DefaultFlowAugmentations = 1 << 22
)

// capOf resolves a Limits field: 0 = the default, negative = unlimited
// (expressed as 0 to the solver loop).
func capOf(v, def int) int {
	if v < 0 {
		return 0
	}
	if v == 0 {
		return def
	}
	return v
}

// MinAreaLazy computes a minimum-register retiming at period phi under the
// work limits lim, using lazily generated period cuts (see
// graph.FeasibleLazy) instead of the dense W/D constraint matrix. pool may
// carry cuts from the minperiod search; it is extended in place. phi must be
// feasible. ctx is polled per cutting-plane round and inside the
// min-cost-flow augmentation loop, and its error returned; rounds and
// generated cuts bump the "minarea-rounds"/"cuts-generated" counters of any
// trace sink it carries.
//
// It is one solve of a fresh Session; a flow that may solve again on the
// same graph (the §5.2 retry) keeps a Session instead.
func MinAreaLazy(ctx context.Context, g *graph.Graph, phi int64, bounds *graph.Bounds, pool *graph.CutPool, lim Limits) ([]int32, error) {
	return new(Session).MinArea(ctx, g, phi, bounds, pool, lim)
}

// Session is the minarea solve state of one flow: the min-cost-flow solver
// of its last solve, the period-cut arcs it holds with their path delays,
// the bounds its bound arcs encode, and the cut sweep of its rounds.
//
// Every solve returns the same retiming whatever state it starts from: the
// loop ends only on the canonical potentials of an optimal flow (the
// pointwise-largest optimum of the cuts held, normalised at the host), and
// only once they meet every period constraint at phi — which makes them the
// largest optimum of the full problem. So a later solve on the same graph at
// an equal or larger period, under equal lower and equal or tighter upper
// bounds, resumes the flow: it removes the cut arcs whose path delay no
// longer exceeds phi, re-routes the flow they carried from the kept
// potentials (mcf.Resume), adds the tightened bound arcs and the pool cuts
// it has not seen, and reoptimizes. Any other solve, and a resume that fails
// short of cancellation (a blown flow budget included), starts cold.
//
// The zero value is ready to use. A Session is not safe for concurrent use.
type Session struct {
	g   *graph.Graph
	s   *mcf.Solver // nil: nothing to resume
	phi int64
	// bounds is a copy of the bounds the solver's bound arcs encode.
	bounds *graph.Bounds
	// cuts are the solver's period-cut arcs; poolMark is the pool position
	// up to which pool cuts have been offered to the solver.
	cuts     []sessionCut
	poolMark int
	sweep    graph.CutSweep
}

type sessionCut struct {
	handle int
	pd     int64
}

// MinArea is MinAreaLazy on the session's state (see Session).
func (ss *Session) MinArea(ctx context.Context, g *graph.Graph, phi int64, bounds *graph.Bounds, pool *graph.CutPool, lim Limits) ([]int32, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pool == nil {
		pool = &graph.CutPool{}
	}
	r, err := ss.minArea(ctx, g, phi, bounds, pool, lim)
	if err != nil {
		ss.s = nil
	}
	return r, err
}

func (ss *Session) minArea(ctx context.Context, g *graph.Graph, phi int64, bounds *graph.Bounds, pool *graph.CutPool, lim Limits) ([]int32, error) {
	maxRounds := capOf(lim.MaxRounds, DefaultMaxRounds)
	maxAug := capOf(lim.FlowAugmentations, DefaultFlowAugmentations)
	sink := trace.From(ctx)
	// One flow solver lives across all cutting-plane rounds: the first round
	// resumes the session's flow or routes the supplies cold, and every later
	// round only grafts its fresh cut arcs onto the already optimal flow and
	// cancels the negative residual cycles they open (mcf.Reoptimize).
	resumed := false
	if ss.resumable(g, phi, bounds) {
		ss.s.MaxAugmentations = maxAug
		err := ss.resume(ctx, phi, bounds, pool)
		if err != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		resumed = err == nil
	}
	if !resumed {
		if err := ss.cold(ctx, g, phi, bounds, pool, maxAug); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("retime: minarea (lazy, round 0) at period %d: %w", phi, err)
		}
	}
	// Intermediate rounds read r off the flow's maintained potentials, which
	// satisfy every constraint held (legal, within bounds) and are optimal
	// for them; the canonical potentials — one Bellman–Ford — are read only
	// when a round finds no cut, and are the only r the loop returns.
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if maxRounds > 0 && round >= maxRounds {
			return nil, fmt.Errorf("retime: minarea round budget %d exhausted at period %d: %w",
				maxRounds, phi, rterr.ErrBudgetExceeded)
		}
		sink.Add("minarea-rounds", 1)
		var newCuts []graph.Cut
		var err error
		r, ok := potentialRetiming(g, ss.s.Potentials())
		if ok {
			if newCuts, _, err = ss.sweep.Cuts(g, r, phi); err != nil {
				return nil, err
			}
		}
		if len(newCuts) == 0 {
			if r, err = canonicalRetiming(g, ss.s); err != nil {
				return nil, fmt.Errorf("retime: minarea (lazy, round %d) at period %d: %w", round, phi, err)
			}
			if newCuts, _, err = ss.sweep.Cuts(g, r, phi); err != nil {
				return nil, err
			}
		}
		if len(newCuts) == 0 {
			if err := g.CheckLegal(r); err != nil {
				return nil, fmt.Errorf("retime: minarea produced illegal retiming: %w", err)
			}
			if err := bounds.Check(r); err != nil {
				return nil, fmt.Errorf("retime: minarea violated bounds: %w", err)
			}
			return r, nil
		}
		sink.Add("cuts-generated", int64(len(newCuts)))
		pool.Add(newCuts)
		ss.poolMark = pool.Mark()
		ss.addCuts(newCuts)
		if err := ss.s.Reoptimize(ctx); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !errors.Is(err, rterr.ErrBudgetExceeded) {
				return nil, fmt.Errorf("retime: minarea (lazy, round %d) at period %d: %w", round+1, phi, err)
			}
			// Incremental repair ran out of budget: fall back to a cold solve
			// over the full accumulated cut set (the pool holds every cut).
			if err := ss.cold(ctx, g, phi, bounds, pool, maxAug); err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				return nil, fmt.Errorf("retime: minarea (lazy, round %d) at period %d: %w", round+1, phi, err)
			}
		}
	}
}

// cold builds the session's solver from scratch — base constraints under
// bounds plus every pool cut applying at phi — and solves it.
func (ss *Session) cold(ctx context.Context, g *graph.Graph, phi int64, bounds *graph.Bounds, pool *graph.CutPool, maxAug int) error {
	ss.g, ss.phi, ss.bounds = g, phi, bounds.Clone()
	ss.newAreaSolver(g, bounds, pool, phi)
	ss.s.MaxAugmentations = maxAug
	_, err := ss.s.SolveCtx(ctx)
	return err
}

// resumable reports whether a solve of g at phi under bounds can resume the
// session's flow: same graph, period not lower (the applicable cuts only
// shrink), lower bounds unchanged, upper bounds equal or tighter (tightening
// adds arcs; anything else would remove base arcs).
func (ss *Session) resumable(g *graph.Graph, phi int64, bounds *graph.Bounds) bool {
	if ss.s == nil || ss.g != g || phi < ss.phi || (bounds == nil) != (ss.bounds == nil) {
		return false
	}
	if bounds == nil {
		return true
	}
	for v := range bounds.Min {
		if bounds.Min[v] != ss.bounds.Min[v] || bounds.Max[v] > ss.bounds.Max[v] {
			return false
		}
	}
	return true
}

// resume moves the session's optimal flow to period phi and bounds: it
// drops the cut arcs that no longer apply, re-routes their flow, then adds
// the tightened bound arcs and the unseen pool cuts and reoptimizes.
func (ss *Session) resume(ctx context.Context, phi int64, bounds *graph.Bounds, pool *graph.CutPool) error {
	kept := ss.cuts[:0]
	for _, c := range ss.cuts {
		if c.pd <= phi {
			ss.s.RemoveArc(c.handle)
		} else {
			kept = append(kept, c)
		}
	}
	ss.cuts = kept
	ss.phi = phi
	if err := ss.s.Resume(ctx); err != nil {
		return err
	}
	if bounds != nil {
		for v, hi := range bounds.Max {
			if hi < ss.bounds.Max[v] {
				ss.s.AddArc(int(graph.Host), v, mcf.Inf, int64(hi))
				ss.bounds.Max[v] = hi
			}
		}
	}
	ss.addPoolCuts(pool, phi)
	return ss.s.Reoptimize(ctx)
}

// addPoolCuts adds the pool cuts past the session's mark that apply at phi.
func (ss *Session) addPoolCuts(pool *graph.CutPool, phi int64) {
	pool.EachSince(ss.poolMark, func(c graph.Cut) {
		if c.PathDelay > phi {
			ss.addCut(c)
		}
	})
	ss.poolMark = pool.Mark()
}

func (ss *Session) addCuts(cuts []graph.Cut) {
	for _, c := range cuts {
		ss.addCut(c)
	}
}

func (ss *Session) addCut(c graph.Cut) {
	h := ss.s.AddArc(int(c.Y), int(c.X), mcf.Inf, int64(c.B))
	ss.cuts = append(ss.cuts, sessionCut{handle: h, pd: c.PathDelay})
}

// potentialRetiming reads a retiming off flow potentials pi, normalised at
// the host; ok is false when a value leaves the int32 range.
func potentialRetiming(g *graph.Graph, pi []int64) ([]int32, bool) {
	n := g.NumVertices()
	r := make([]int32, n)
	h := pi[graph.Host]
	for v := 0; v < n; v++ {
		d := pi[v] - h
		if d != int64(int32(d)) {
			return nil, false
		}
		r[v] = int32(d)
	}
	return r, true
}

// newAreaSolver assembles the min-cost-flow dual of the Leiserson–Saxe
// sharing model over g at period phi: one node per vertex plus a mirror
// variable m_u, billed max_i w_r(e_i), for every multi-fanout vertex u; one
// arc per base constraint under bounds; and one arc per pool cut that
// applies at phi, added by addCut so the session can remove it later.
//
// The arcs are counted before the solver is made, so every node's arc list,
// the cuts' included, is carved out of one backing array sized once, and
// the base arcs go straight into it. Cut arcs of later rounds may still
// outgrow a node's room.
func (ss *Session) newAreaSolver(g *graph.Graph, bounds *graph.Bounds, pool *graph.CutPool, phi int64) {
	n := g.NumVertices()
	mirror := make([]int32, n)
	nvars := n
	for v := 0; v < n; v++ {
		mirror[v] = -1
		if len(g.Out(graph.VertexID(v))) >= 2 {
			mirror[v] = int32(nvars)
			nvars++
		}
	}
	deg := make([]int32, nvars)
	arcs := 0
	count := func(y, x int, _ int64) {
		if y != x {
			deg[y]++
			deg[x]++
		}
		arcs++
	}
	forEachBaseArc(g, bounds, mirror, count)
	cuts := 0
	pool.EachSince(0, func(c graph.Cut) {
		if c.PathDelay > phi {
			count(int(c.Y), int(c.X), 0)
			cuts++
		}
	})
	s := mcf.NewSized(deg, arcs)
	forEachBaseArc(g, bounds, mirror, func(y, x int, b int64) {
		s.AddArc(y, x, mcf.Inf, b)
	})
	for v := 0; v < n; v++ {
		outs := g.Out(graph.VertexID(v))
		switch {
		case len(outs) == 0:
		case mirror[v] < 0:
			e := g.Edges[outs[0]]
			s.AddSupply(int(e.To), 1)
			s.AddSupply(int(e.From), -1)
		default:
			s.AddSupply(int(mirror[v]), 1)
			s.AddSupply(v, -1)
		}
	}
	ss.s = s
	ss.cuts = slices.Grow(ss.cuts[:0], cuts)
	ss.poolMark = 0
	ss.addPoolCuts(pool, phi)
}

// forEachBaseArc calls f(y, x, b) for every period-independent constraint
// r(x) − r(y) ≤ b of the sharing model — each the flow arc y→x of cost b:
// the mirror constraints of the multi-fanout vertices (mirror[v] ≥ 0), the
// circuit constraints, and the class bounds (bounds may be nil).
func forEachBaseArc(g *graph.Graph, bounds *graph.Bounds, mirror []int32, f func(y, x int, b int64)) {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if mirror[v] < 0 {
			continue
		}
		outs := g.Out(graph.VertexID(v))
		var wmax int32
		for _, ei := range outs {
			wmax = max(wmax, g.Edges[ei].W)
		}
		for _, ei := range outs {
			e := g.Edges[ei]
			f(int(mirror[v]), int(e.To), int64(wmax-e.W))
		}
	}
	for _, e := range g.Edges {
		f(int(e.To), int(e.From), int64(e.W))
	}
	if bounds == nil {
		return
	}
	for v := 0; v < n; v++ {
		if lo := bounds.Min[v]; lo != graph.NoLower {
			f(v, int(graph.Host), int64(-lo))
		}
		if hi := bounds.Max[v]; hi != graph.NoUpper {
			f(int(graph.Host), v, int64(hi))
		}
	}
}

// canonicalRetiming recovers the canonical retiming from the residual
// potentials of a solved (or reoptimized) flow.
func canonicalRetiming(g *graph.Graph, s *mcf.Solver) ([]int32, error) {
	pi, err := s.ResidualPotentials()
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	r := make([]int32, n)
	h := pi[graph.Host]
	for v := 0; v < n; v++ {
		r[v] = int32(pi[v] - h)
	}
	return r, nil
}
