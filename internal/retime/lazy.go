package retime

import (
	"context"
	"errors"
	"fmt"

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
func MinAreaLazy(ctx context.Context, g *graph.Graph, phi int64, bounds *graph.Bounds, pool *graph.CutPool, lim Limits) ([]int32, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pool == nil {
		pool = &graph.CutPool{}
	}
	maxRounds := capOf(lim.MaxRounds, DefaultMaxRounds)
	sink := trace.From(ctx)
	prob := buildAreaProblem(g, bounds)
	prob.maxAug = capOf(lim.FlowAugmentations, DefaultFlowAugmentations)
	cuts := pool.ForPeriod(phi)
	// One flow solver lives across all cutting-plane rounds: round 0 routes
	// the supplies cold, and every later round only grafts its fresh cut arcs
	// onto the already optimal flow and cancels the negative residual cycles
	// they open (mcf.Reoptimize). The canonical potentials read back are
	// identical to a cold re-solve's — see Reoptimize — so rounds after the
	// first cost incremental work instead of re-routing every supply unit.
	s := prob.newSolver(cuts)
	if _, err := s.SolveCtx(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("retime: minarea (lazy, round 0) at period %d: %w", phi, err)
	}
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if maxRounds > 0 && round >= maxRounds {
			return nil, fmt.Errorf("retime: minarea round budget %d exhausted at period %d: %w",
				maxRounds, phi, rterr.ErrBudgetExceeded)
		}
		sink.Add("minarea-rounds", 1)
		r, err := prob.retiming(g, s)
		if err != nil {
			return nil, fmt.Errorf("retime: minarea (lazy, round %d) at period %d: %w", round, phi, err)
		}
		newCuts, err := g.PeriodCuts(r, phi)
		if err != nil {
			return nil, err
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
		for _, c := range newCuts {
			cuts = append(cuts, c.Constraint)
			s.AddArc(int(c.Y), int(c.X), mcf.Inf, int64(c.B))
		}
		if err := s.Reoptimize(ctx); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if !errors.Is(err, rterr.ErrBudgetExceeded) {
				return nil, fmt.Errorf("retime: minarea (lazy, round %d) at period %d: %w", round+1, phi, err)
			}
			// Incremental repair ran out of budget: fall back to a cold solve
			// over the full accumulated cut set (the pre-warm-start behavior).
			s = prob.newSolver(cuts)
			if _, err := s.SolveCtx(ctx); err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				return nil, fmt.Errorf("retime: minarea (lazy, round %d) at period %d: %w", round+1, phi, err)
			}
		}
	}
}

// areaProblem is the sharing-aware minarea ILP skeleton: variables (graph
// vertices plus fanout mirrors), cost coefficients, and the constraints that
// do not depend on the period.
type areaProblem struct {
	nvars  int
	cost   []int64
	base   []dcon
	maxAug int // augmentation cap per flow solve; 0 = unlimited
}

type dcon struct {
	x, y int // r(x) − r(y) ≤ b
	b    int64
}

// buildAreaProblem assembles the Leiserson–Saxe sharing model over g: every
// multi-fanout vertex u gets a mirror variable m_u billed max_i w_r(e_i).
func buildAreaProblem(g *graph.Graph, bounds *graph.Bounds) *areaProblem {
	n := g.NumVertices()
	mirror := make([]int, n)
	nvars := n
	for v := 0; v < n; v++ {
		if len(g.Out(graph.VertexID(v))) >= 2 {
			mirror[v] = nvars
			nvars++
		} else {
			mirror[v] = -1
		}
	}
	p := &areaProblem{nvars: nvars, cost: make([]int64, nvars)}
	for v := 0; v < n; v++ {
		outs := g.Out(graph.VertexID(v))
		if len(outs) == 0 {
			continue
		}
		if mirror[v] == -1 {
			e := g.Edges[outs[0]]
			p.cost[e.To]++
			p.cost[e.From]--
			continue
		}
		var wmax int32
		for _, ei := range outs {
			if w := g.Edges[ei].W; w > wmax {
				wmax = w
			}
		}
		p.cost[mirror[v]]++
		p.cost[v]--
		for _, ei := range outs {
			e := g.Edges[ei]
			p.base = append(p.base, dcon{x: int(e.To), y: mirror[v], b: int64(wmax - e.W)})
		}
	}
	for _, e := range g.Edges {
		p.base = append(p.base, dcon{x: int(e.From), y: int(e.To), b: int64(e.W)})
	}
	if bounds != nil {
		for v := 0; v < n; v++ {
			if lo := bounds.Min[v]; lo != graph.NoLower {
				p.base = append(p.base, dcon{x: int(graph.Host), y: v, b: int64(-lo)})
			}
			if hi := bounds.Max[v]; hi != graph.NoUpper {
				p.base = append(p.base, dcon{x: v, y: int(graph.Host), b: int64(hi)})
			}
		}
	}
	return p
}

// newSolver assembles the min-cost-flow dual over the base constraints plus
// the given period constraints, ready for SolveCtx.
func (p *areaProblem) newSolver(period []graph.Constraint) *mcf.Solver {
	s := mcf.New(p.nvars)
	s.MaxAugmentations = p.maxAug
	for _, c := range p.base {
		s.AddArc(c.y, c.x, mcf.Inf, c.b)
	}
	for _, c := range period {
		s.AddArc(int(c.Y), int(c.X), mcf.Inf, int64(c.B))
	}
	for v := 0; v < p.nvars; v++ {
		s.AddSupply(v, p.cost[v])
	}
	return s
}

// retiming recovers the canonical retiming from the residual potentials of a
// solved (or reoptimized) flow.
func (p *areaProblem) retiming(g *graph.Graph, s *mcf.Solver) ([]int32, error) {
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
