package graph

import (
	"context"
	"fmt"
	"slices"

	"mcretiming/internal/failpoint"
	"mcretiming/internal/rterr"
	"mcretiming/internal/trace"
)

// This file implements lazily-generated period constraints. The dense
// formulation emits r(u) − r(v) ≤ W(u,v) − 1 for every pair with
// D(u,v) > φ — O(V²) constraints, which is what makes naive minarea
// retiming explode on real circuits (the problem [16] and [12, 11] attack
// with pruning). The lazy scheme is a cutting-plane loop instead:
//
//	solve with the constraints found so far → compute the critical
//	(zero-weight) paths of the candidate retiming → every path longer than
//	φ yields one violated-but-valid period cut → re-solve.
//
// A cut traced from a zero-weight path p: u⇝v with delay > φ is
// r(u) − r(v) ≤ w(p) − 1, where w(p) (the path's original weight) equals
// r(u) − r(v) under the current candidate — so the cut is violated now, and
// it is a genuine period constraint (any retiming leaving no register on p
// exposes a too-long path). Convergence: each round adds a constraint the
// current solution violates, and the constraint space is finite.
//
// Cuts are remembered with the delay of the path that produced them, so a
// binary search can reuse every cut whose path delay exceeds the probe.
type Cut struct {
	Constraint
	PathDelay int64
}

// CutPool accumulates period cuts across feasibility probes, deduplicated
// per (Y, X) endpoint pair: cut A dominates cut B on the same pair when
// A.B ≤ B.B and A.PathDelay ≥ B.PathDelay (A is at least as tight and
// applies at least as often). The pool keeps only non-dominated cuts — per
// pair, a Pareto staircase over (bound, path delay) — which caps pool memory
// on long binary searches where the same critical pair is rediscovered with
// slightly different bounds round after round.
//
// Dropping a dominated cut never changes any solve: for every period the
// dominating cut is present whenever the dominated one would be, with a
// bound at most as large, so the looser constraint could never bind in the
// SPFA relaxation (nor carry flow in the minarea dual — parallel arcs of
// higher cost at infinite capacity are never on a shortest augmenting path).
type CutPool struct {
	cuts []Cut
	// byPair maps an endpoint pair to the indices of its live cuts in cuts.
	// Built lazily on the first Add.
	byPair map[cutPair][]int32
	dead   int // tombstoned entries in cuts (see tombstonePD)
}

type cutPair struct{ y, x VertexID }

// tombstonePD marks a cuts slot whose entry was replaced by a dominating
// cut elsewhere in the staircase. ForPeriod, Snapshot, and Len skip it.
const tombstonePD = int64(-1) << 62

// ForPeriod returns the pooled constraints that apply at period phi.
func (p *CutPool) ForPeriod(phi int64) []Constraint {
	var out []Constraint
	for _, c := range p.cuts {
		if c.PathDelay != tombstonePD && c.PathDelay > phi {
			out = append(out, c.Constraint)
		}
	}
	return out
}

// Add merges cuts into the pool, keeping per (Y, X) pair only the
// non-dominated ones (tightest bound per path-delay level).
func (p *CutPool) Add(cuts []Cut) {
	for _, c := range cuts {
		p.addOne(c)
	}
}

func (p *CutPool) addOne(c Cut) {
	if p.byPair == nil {
		p.byPair = make(map[cutPair][]int32)
		for i, ex := range p.cuts {
			if ex.PathDelay != tombstonePD {
				k := cutPair{ex.Y, ex.X}
				p.byPair[k] = append(p.byPair[k], int32(i))
			}
		}
	}
	key := cutPair{c.Y, c.X}
	idxs := p.byPair[key]
	replaced := int32(-1)
	kept := idxs[:0]
	for _, i := range idxs {
		ex := p.cuts[i]
		if ex.B <= c.B && ex.PathDelay >= c.PathDelay {
			// An existing cut dominates the new one: nothing to do. No
			// earlier survivor can have been dominated by c (that would make
			// it dominated by ex too, contradicting the staircase invariant).
			return
		}
		if c.B <= ex.B && c.PathDelay >= ex.PathDelay {
			// The new cut dominates this one: reuse its first slot, tombstone
			// the rest, so insertion order (hence ForPeriod order) stays
			// deterministic.
			if replaced == -1 {
				p.cuts[i] = c
				replaced = i
				kept = append(kept, i)
			} else {
				p.cuts[i].PathDelay = tombstonePD
				p.dead++
			}
			continue
		}
		kept = append(kept, i)
	}
	if replaced != -1 {
		p.byPair[key] = kept
		return
	}
	p.cuts = append(p.cuts, c)
	p.byPair[key] = append(kept, int32(len(p.cuts)-1))
}

// Len returns the number of pooled (live) cuts.
func (p *CutPool) Len() int { return len(p.cuts) - p.dead }

// Snapshot returns a copy of the pooled cuts. A pool is not safe for
// concurrent use; a sweep over many periods snapshots the shared pool once
// and seeds a private pool per concurrent solve instead.
func (p *CutPool) Snapshot() []Cut {
	out := make([]Cut, 0, p.Len())
	for _, c := range p.cuts {
		if c.PathDelay != tombstonePD {
			out = append(out, c)
		}
	}
	return out
}

// NewCutPool returns a pool pre-seeded with cuts, deduplicated on the way
// in. Seeding is sound across solves on the same graph: a period cut is a
// property of a graph path, independent of the retiming bounds in force.
func NewCutPool(cuts []Cut) *CutPool {
	p := &CutPool{}
	p.Add(cuts)
	return p
}

// BaseConstraints returns the circuit constraints plus the class-bound
// constraints of §5.1 (bounds may be nil).
func (g *Graph) BaseConstraints(bounds *Bounds) []Constraint {
	return g.appendBaseConstraints(nil, bounds)
}

// appendBaseConstraints appends to cons the circuit constraints — one
// r(u) − r(v) ≤ w(e) per edge — and then the §5.1 class-bound constraints of
// bounds (nil = none), and returns the result.
func (g *Graph) appendBaseConstraints(cons []Constraint, bounds *Bounds) []Constraint {
	cons = slices.Grow(cons, len(g.Edges))
	for _, e := range g.Edges {
		cons = append(cons, Constraint{Y: e.To, X: e.From, B: e.W})
	}
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

// PeriodCuts computes the period cuts violated by retiming r at period phi:
// one per vertex whose zero-weight arrival exceeds phi, traced back along
// the critical parent chain. Cut i belongs to the i-th violating vertex in
// vertex order. An empty result means r achieves phi.
func (g *Graph) PeriodCuts(r []int32, phi int64) ([]Cut, error) {
	cs := newCutScratch(g.NumVertices())
	cuts, _, err := g.periodCutsBuf(r, phi, &cs)
	return cuts, err
}

// cutScratch holds the per-sweep buffers of periodCutsBuf so a probe ladder
// can run every cutting-plane round allocation-free.
type cutScratch struct {
	indeg  []int32
	delta  []int64
	parent []VertexID
	queue  []VertexID
}

func newCutScratch(n int) cutScratch {
	return cutScratch{
		indeg:  make([]int32, n),
		delta:  make([]int64, n),
		parent: make([]VertexID, n),
		queue:  make([]VertexID, 0, n),
	}
}

// periodCutsBuf is PeriodCuts inside cs's buffers, additionally returning the
// maximum zero-weight arrival time of the sweep — the period r actually
// achieves — so a feasible probe's caller can tighten its search without a
// second arrival pass.
func (g *Graph) periodCutsBuf(r []int32, phi int64, cs *cutScratch) ([]Cut, int64, error) {
	n := g.NumVertices()
	indeg := cs.indeg
	for v := 0; v < n; v++ {
		indeg[v] = 0
	}
	for _, e := range g.Edges {
		if g.weight(e, r) == 0 {
			indeg[e.To]++
		}
	}
	queue := cs.queue[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	delta, parent := cs.delta, cs.parent
	for v := 0; v < n; v++ {
		delta[v] = g.Delay[v]
		parent[v] = -1
	}
	done := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, ei := range g.out[u] {
			e := g.Edges[ei]
			if g.weight(e, r) != 0 {
				continue
			}
			if a := delta[u] + g.Delay[e.To]; a > delta[e.To] {
				delta[e.To] = a
				parent[e.To] = u
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	cs.queue = queue[:0] // keep grown backing for the next sweep
	if done != n {
		return nil, 0, fmt.Errorf("graph: zero-weight cycle under candidate retiming")
	}
	var maxDelta int64
	var cuts []Cut
	for v := 0; v < n; v++ {
		if delta[v] > maxDelta {
			maxDelta = delta[v]
		}
		if delta[v] <= phi {
			continue
		}
		u := VertexID(v)
		for parent[u] != -1 {
			u = parent[u]
		}
		// Path weight w(p) = r(u) − r(v) because every edge is tight.
		cuts = append(cuts, Cut{
			Constraint: Constraint{Y: VertexID(v), X: u, B: r[u] - r[v] - 1},
			PathDelay:  delta[v],
		})
	}
	return cuts, maxDelta, nil
}

// FeasibleLazy decides period feasibility with lazily generated cuts,
// reusing (and extending) pool. On success it returns a legal retiming with
// r[Host] = 0. ctx is polled once per cutting-plane round and its error
// returned; cuts bump the "cuts-generated" counter of any trace sink it
// carries.
//
// lad is the solve session's probe ladder: the probe warm-starts from its
// last feasible checkpoint when that is usable and re-checkpoints on a
// feasible exit. A nil lad is the cold reference: the probe seeds SPFA from
// scratch.
func (g *Graph) FeasibleLazy(ctx context.Context, phi int64, bounds *Bounds, pool *CutPool, lad *ProbeLadder) ([]int32, bool, error) {
	r, _, _, ok, err := g.feasibleLazyLad(ctx, phi, bounds, pool, lad)
	return r, ok, err
}

// feasibleLazyLad is the cutting-plane feasibility loop, warm-started from
// lad when it holds a usable checkpoint (same graph, same bounds content,
// probe at or below the checkpoint period — the warm set of applicable cuts
// only grows as φ shrinks). Any other state solves cold; either way a
// feasible exit re-checkpoints the ladder for the next probe. A warm probe
// never rebuilds the base constraint slice: the checkpointed prefix already
// embeds it, and boundsMatch certifies it is still current.
//
// On success achieved is the period the returned retiming actually attains
// (the maximum zero-weight arrival of the final cut sweep), which the binary
// search uses to tighten without a separate Period pass. On an infeasible
// verdict cert, when nonzero, certifies that every period below it is
// infeasible too — the failed probe's negative cycle survives (all its period
// cuts stay required) down to cert, so the caller's lower bound may jump
// straight there instead of stepping to phi+1 (ladder probes only; the
// ladder-less reference path never certifies).
func (g *Graph) feasibleLazyLad(ctx context.Context, phi int64, bounds *Bounds, pool *CutPool, lad *ProbeLadder) (res []int32, achieved, cert int64, okOut bool, errOut error) {
	sink := trace.From(ctx)
	n := g.NumVertices()
	// One scratch for the whole cutting-plane loop: the first round solves
	// cold (or restores the ladder checkpoint), every later round continues
	// the previous round's relaxation — the rounds only ever add constraints,
	// so the incremental re-solve is exact (see resolveDifferenceBuf).
	var sc *spfaScratch
	var cons []Constraint
	var pd []int64
	solved := 0
	warm := false
	if lad != nil {
		lad.bind(g)
		if lad.ckValid && phi <= lad.ckPhi && lad.boundsMatch(bounds) {
			cons, pd = lad.restore(phi, pool)
			solved = lad.ckLen
			warm = true
		} else {
			cons, pd = lad.seed(g, bounds, phi, pool)
		}
		sc = lad.sc
		// The probe is about to mutate the scratch; only a feasible exit
		// (which re-checkpoints) restores the clean invariant.
		lad.scClean = false
	} else {
		cons = append(g.BaseConstraints(bounds), pool.ForPeriod(phi)...)
		sc = newSPFAScratch(n)
	}
	noteWarm(warm)
	cut := &cutScratch{}
	if lad != nil {
		cut = &lad.cut
	} else {
		*cut = newCutScratch(n)
	}
	// abort records, for a warm probe, the constraint slice whose adjacency
	// entries the failed probe leaves behind in the scratch, so the next
	// restore repairs the index by trimming exactly those entries instead of
	// rebuilding it from the checkpoint (see ProbeLadder.dirty).
	abort := func() {
		if warm {
			lad.dirty = cons
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			abort()
			return nil, 0, 0, false, err
		}
		// Chaos hook: one evaluation per cutting-plane round.
		if err := failpoint.Inject(ctx, "graph.feasible"); err != nil {
			abort()
			return nil, 0, 0, false, err
		}
		sc.pd = pd
		var r []int32
		var ok bool
		if solved == 0 {
			r, ok = solveDifferenceBuf(n, cons, sc)
		} else {
			r, ok = resolveDifferenceBuf(n, cons, solved, sc)
		}
		solved = len(cons)
		if !ok {
			// The scratch is poisoned (mid-negative-cycle), but the ladder's
			// checkpoint copies are untouched: the next probe restores them.
			abort()
			return nil, 0, sc.certPD, false, nil
		}
		h := r[Host]
		for i := range r {
			r[i] -= h
		}
		cuts, maxDelta, err := g.periodCutsBuf(r, phi, cut)
		if err != nil {
			abort()
			return nil, 0, 0, false, nil
		}
		if len(cuts) == 0 {
			if lad != nil {
				lad.checkpoint(phi, bounds, cons, pd, pool)
			}
			// r aliases the scratch's solution buffer; copy before it escapes.
			return append([]int32(nil), r...), maxDelta, 0, true, nil
		}
		sink.Add("cuts-generated", int64(len(cuts)))
		pool.Add(cuts)
		for _, c := range cuts {
			cons = append(cons, c.Constraint)
			if lad != nil {
				pd = append(pd, c.PathDelay)
			}
		}
	}
}

// MinPeriodLazy finds the minimum feasible period by numeric binary search
// with lazy cuts. pool accumulates the generated cuts (nil for a private
// pool) and can seed a subsequent minarea solve at the same period. ctx is
// polled per feasibility probe and per cutting-plane round; probes bump the
// "minperiod-probes" counter of any trace sink it carries.
//
// Every probe runs through lad (see FeasibleLazy): with a ladder the search
// pays one cold SPFA start and warm-starts every later probe from the last
// feasible one; a nil lad solves every probe cold and prices no
// infeasibility certificates, so the search bisects.
func (g *Graph) MinPeriodLazy(ctx context.Context, bounds *Bounds, pool *CutPool, lad *ProbeLadder) (int64, []int32, error) {
	// Chaos hook: the binary search's entry is the canonical "slow solver"
	// site for latency and failure injection.
	if err := failpoint.Inject(ctx, "graph.minperiod"); err != nil {
		return 0, nil, err
	}
	if pool == nil {
		pool = &CutPool{}
	}
	sink := trace.From(ctx)
	hi, err := g.Period(nil)
	if err != nil {
		return 0, nil, err
	}
	var lo int64
	for _, d := range g.Delay {
		if d > lo {
			lo = d
		}
	}
	bestPhi, bestR := hi, make([]int32, g.NumVertices())
	sink.Add("minperiod-probes", 1)
	r, achieved, _, ok, err := g.feasibleLazyLad(ctx, hi, bounds, pool, lad)
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, fmt.Errorf("graph: original period %d infeasible (conflicting bounds?): %w", hi, rterr.ErrInfeasiblePeriod)
	}
	bestR = r
	// The achieved period of a feasible retiming tightens the search much
	// faster than bisection alone. The probe's final cut sweep already
	// computed it (identical to g.Period(r) by construction).
	if achieved < bestPhi {
		bestPhi = achieved
	}
	for lo < bestPhi {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		mid := lo + (bestPhi-lo)/2
		sink.Add("minperiod-probes", 1)
		r, achieved, cert, ok, err := g.feasibleLazyLad(ctx, mid, bounds, pool, lad)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			bestR = r
			if achieved <= mid {
				bestPhi = achieved
			} else {
				bestPhi = mid
			}
		} else {
			// An infeasibility certificate (the failed probe's negative cycle
			// priced by its cuts' activation thresholds) rules out every
			// period below cert in one step; without one, plain bisection.
			lo = mid + 1
			if cert > lo {
				lo = cert
			}
		}
	}
	return bestPhi, bestR, nil
}
