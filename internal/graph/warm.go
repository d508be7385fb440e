package graph

import (
	"slices"
	"sync/atomic"
)

// This file implements warm-starting of the lazy feasibility solve across
// binary-search probes. The minperiod search probes a descending sequence of
// periods; when φ shrinks, every period cut that applied at the old φ still
// applies (PathDelay > φ_old > φ_new), so the constraint system of the next
// probe is a superset of the previous one. The canonical shortest-path
// labeling of the old system therefore upper-bounds the new one pointwise,
// with every label achieved by a still-existing constraint path — exactly the
// precondition of resolveDifferenceBuf. A probe can restore the last feasible
// probe's quiescent SPFA state, activate only the cuts that are new, and
// relax incrementally instead of re-seeding all n vertices and re-propagating
// through the whole constraint graph.
//
// Correctness does not depend on reproducing the cold probe's constraint
// sequence. Any probe that terminates feasibly holds the canonical
// shortest-path labeling of base ∪ S for some set S of valid period cuts,
// with no zero-weight path longer than φ. That labeling satisfies every
// dense period constraint at φ (its achieved period is ≤ φ), so it is a
// solution of the full system — hence pointwise ≤ the full system's canonical
// labeling (the pointwise-maximal solution ≤ 0) — while being shortest paths
// over a subsystem — hence pointwise ≥ it. It therefore equals the dense
// canonical labeling at φ, no matter which valid cuts were active. Extra
// cuts carried by a warm checkpoint and cuts missing from it both wash out:
// the cutting-plane loop adds whatever is still violated, and the fixpoint
// is unique. See DESIGN.md §8 for the full argument.

// ProbeLadder carries SPFA state across the feasibility probes of one
// binary-search descent ("ladder" — each feasible probe is a rung the next
// probe climbs down from). It checkpoints the quiescent solver state of the
// last feasible probe and restores it for every later probe at an equal or
// smaller φ on the same graph under the same base constraints; anything else
// falls back to a cold solve (and re-checkpoints on the next feasible probe).
//
// A ladder is not safe for concurrent use. It is the only state a solve
// session carries between probes: the flow creates one per session, and
// passing nil instead selects the cold reference path (see FeasibleLazy).
type ProbeLadder struct {
	g  *Graph
	n  int
	sc *spfaScratch
	// scClean marks the scratch as still holding the checkpoint state
	// exactly (set at checkpoint, cleared when a later probe poisons the
	// buffers): a clean warm probe skips the dist/parent copies and the adj
	// rebuild — it just activates the delta cuts and keeps relaxing.
	scClean bool
	// cut carries the period-cut sweep state across every cutting-plane
	// round of every probe, so a round re-sweeps only what its r changed.
	cut CutSweep

	// Checkpoint of the last feasible probe: the canonical labeling and
	// parent forest at quiescence, the exact constraint system it satisfies,
	// the probe period, the bounds content in force (the only part of the
	// base constraints that can change for a fixed graph — §5.2 retries
	// tighten it in place, which must cold-restart the ladder), and how much
	// of the cut pool had been appended when it was taken (pool entries past
	// poolLen are the candidates for delta activation on the next warm
	// probe).
	ckValid          bool
	ckPhi            int64
	ckDist           []int64
	ckParent         []int32
	ckParentCons     []int32
	ckBoundsSet      bool
	ckBdMin, ckBdMax []int32
	poolLen          int

	// buf is the ladder's single working constraint buffer, shared by every
	// probe of its lifetime; the checkpointed system is buf[:ckLen]. Probes
	// only ever append at index ≥ ckLen, so the checkpoint prefix is never
	// overwritten in place: taking a checkpoint is an O(1) length mark rather
	// than an O(|cons|) copy, and a warm restore reuses the capacity past
	// ckLen (left over from the previous probe's delta cuts) instead of
	// reallocating the whole slice. A cold probe reseeds buf from the base
	// constraints — and must therefore drop any existing checkpoint, whose
	// prefix it is about to overwrite (see seed).
	buf []Constraint
	// pdBuf carries the activation thresholds parallel to buf (a cut's
	// PathDelay, alwaysActivePD for base constraints), maintained in lockstep
	// so a failed probe's negative cycle can be priced into an infeasibility
	// certificate (see spfaScratch.cycleCertPD).
	pdBuf []int64
	ckLen int

	// dirty, when non-nil, is the constraint slice of a warm probe that went
	// infeasible: its prefix [:ckLen] is the checkpoint system, and its tail
	// is exactly the set of constraints whose adjacency entries poisoned the
	// scratch's index. The next restore undoes them by trimming each touched
	// list's tail (entries ≥ ckLen) instead of rebuilding the whole index —
	// O(failed probe's delta) instead of O(total constraints).
	dirty []Constraint
}

// NewProbeLadder returns an empty ladder. It binds to a graph lazily on the
// first probe and rebinds (cold) whenever it sees a different graph, so a
// ladder can outlive one solve and donate its buffers to the next.
func NewProbeLadder() *ProbeLadder { return &ProbeLadder{} }

// bind points the ladder at g, invalidating the checkpoint if the graph
// changed and (re)sizing the scratch buffers if the vertex count changed.
func (l *ProbeLadder) bind(g *Graph) {
	n := g.NumVertices()
	if l.g != g {
		l.g = g
		l.ckValid = false
		l.ckBoundsSet = false
		l.poolLen = 0
		l.dirty = nil
	}
	if l.n != n || l.sc == nil {
		l.n = n
		l.sc = newSPFAScratch(n)
		l.ckDist = make([]int64, n)
		l.ckParent = make([]int32, n)
		l.ckParentCons = make([]int32, n)
		l.ckValid = false
		l.scClean = false
		l.dirty = nil
	}
}

// boundsMatch reports whether bounds has the content the checkpoint was taken
// under. For a fixed graph the bounds suffix is the only variable part of the
// base constraints, so content equality here means the whole base is
// unchanged — without rebuilding the O(V+E) constraint slice every warm
// probe. §5.2 retries mutate bounds in place; the copies catch that.
func (l *ProbeLadder) boundsMatch(bounds *Bounds) bool {
	if bounds == nil {
		return !l.ckBoundsSet
	}
	if !l.ckBoundsSet {
		return false
	}
	return slices.Equal(bounds.Min, l.ckBdMin) && slices.Equal(bounds.Max, l.ckBdMax)
}

// checkpoint captures the quiescent state of a feasible probe: cons is the
// full constraint slice the scratch's labeling satisfies canonically, pd its
// parallel activation thresholds. Both are either buf/pdBuf themselves (a
// warm probe extended them, possibly reallocating) or seed-built slices
// aliasing them, so adopting them re-anchors the buffers and the constraint
// capture costs nothing.
func (l *ProbeLadder) checkpoint(phi int64, bounds *Bounds, cons []Constraint, pd []int64, pool *CutPool) {
	copy(l.ckDist, l.sc.dist)
	copy(l.ckParent, l.sc.parent)
	copy(l.ckParentCons, l.sc.parentCons)
	l.buf = cons
	l.pdBuf = pd
	l.ckLen = len(cons)
	l.dirty = nil
	if bounds == nil {
		l.ckBoundsSet = false
	} else {
		l.ckBoundsSet = true
		l.ckBdMin = append(l.ckBdMin[:0], bounds.Min...)
		l.ckBdMax = append(l.ckBdMax[:0], bounds.Max...)
	}
	l.ckPhi = phi
	l.poolLen = len(pool.cuts)
	l.ckValid = true
	l.scClean = true
}

// restore rebuilds the scratch to the checkpoint's quiescent state and
// returns the working constraint slice: the checkpointed prefix plus every
// pool cut appended since the checkpoint that applies at phi. The delta cuts
// land in buf's capacity past ckLen — overwriting the previous probe's
// leftovers, never the checkpoint prefix — so a warm probe performs no
// constraint copying at all. Pool slots that were replaced in place by a
// dominating cut are not re-activated: the stale version in the prefix is
// still a valid (just looser) period constraint, and the loop regenerates
// anything that matters.
func (l *ProbeLadder) restore(phi int64, pool *CutPool) ([]Constraint, []int64) {
	sc := l.sc
	ck := l.buf[:l.ckLen]
	if !l.scClean {
		// The scratch was poisoned since the checkpoint (an infeasible probe
		// aborted mid-relaxation): rebuild it from the checkpoint copies.
		// When it is clean — the previous probe ended feasibly — the buffers
		// already hold exactly this state and the rebuild is skipped.
		if l.dirty != nil {
			// The poisoning probe's delta is known: every adjacency entry it
			// added has index ≥ ckLen and sits at the tail of its source's
			// list (indices are appended in ascending order), so trimming
			// those tails restores the checkpoint index exactly.
			for _, c := range l.dirty[l.ckLen:] {
				a := sc.adj[c.Y]
				for len(a) > 0 && int(a[len(a)-1]) >= l.ckLen {
					a = a[:len(a)-1]
				}
				sc.adj[c.Y] = a
			}
		} else {
			for i := range sc.adj {
				sc.adj[i] = sc.adj[i][:0]
			}
			for i, c := range ck {
				sc.adj[c.Y] = append(sc.adj[c.Y], int32(i))
			}
		}
		copy(sc.dist, l.ckDist)
		copy(sc.parent, l.ckParent)
		copy(sc.parentCons, l.ckParentCons)
	}
	l.dirty = nil
	cons := ck
	pd := l.pdBuf[:l.ckLen]
	for _, c := range pool.cuts[min(l.poolLen, len(pool.cuts)):] {
		if c.PathDelay != tombstonePD && c.PathDelay > phi {
			cons = append(cons, c.Constraint)
			pd = append(pd, c.PathDelay)
		}
	}
	return cons, pd
}

// seed rebuilds the working buffer for a cold probe: g's circuit and bounds
// constraints, built straight into buf, plus every pool cut applying at phi.
// Reusing buf overwrites the checkpoint prefix, so any existing checkpoint is
// dropped; a feasible exit re-checkpoints immediately, and the only sequences
// that lose a rung to this are mixed-direction probe orders (φ above the
// checkpoint) that could not have warm-started anyway.
func (l *ProbeLadder) seed(g *Graph, bounds *Bounds, phi int64, pool *CutPool) ([]Constraint, []int64) {
	l.ckValid = false
	l.ckLen = 0
	l.dirty = nil
	cons := g.appendBaseConstraints(l.buf[:0], bounds)
	cuts := 0
	for _, c := range pool.cuts {
		if c.PathDelay != tombstonePD && c.PathDelay > phi {
			cuts++
		}
	}
	cons = slices.Grow(cons, cuts)
	pd := slices.Grow(l.pdBuf[:0], len(cons)+cuts)
	for range cons {
		pd = append(pd, alwaysActivePD)
	}
	for _, c := range pool.cuts {
		if c.PathDelay != tombstonePD && c.PathDelay > phi {
			cons = append(cons, c.Constraint)
			pd = append(pd, c.PathDelay)
		}
	}
	l.buf = cons
	l.pdBuf = pd
	return cons, pd
}

// spfaColdStarts counts full (cold) SPFA difference-system solves — every
// solveDifferenceBuf call that seeds all n vertices rather than continuing a
// previous relaxation. It is a structural regression hook: a warm-started
// minperiod search performs exactly one cold start no matter how many probes
// it runs, so tests pin the delta and catch any silent regression to
// per-probe re-seeding.
var spfaColdStarts atomic.Int64

// ColdStartCount returns the process-cumulative number of cold SPFA solves.
func ColdStartCount() int64 { return spfaColdStarts.Load() }

// CacheStats counts lazy feasibility probes by warm-start outcome: a warm hit
// restored a ProbeLadder checkpoint instead of solving the difference system
// cold; every other probe is a miss.
type CacheStats struct {
	WarmHits, WarmMisses int64
}

// Process-cumulative probe counters, for readers that cannot reach the
// per-solve ladders buried in the flow: mcretimed's /metrics and perfbench's
// per-layer counters, which sample them before and after a run.
var totalCacheStats struct {
	warmHits, warmMisses atomic.Int64
}

// TotalCacheStats returns the process-cumulative probe counters.
func TotalCacheStats() CacheStats {
	return CacheStats{
		WarmHits:   totalCacheStats.warmHits.Load(),
		WarmMisses: totalCacheStats.warmMisses.Load(),
	}
}

// noteWarm records one lazy feasibility probe's warm-start outcome.
func noteWarm(hit bool) {
	if hit {
		totalCacheStats.warmHits.Add(1)
	} else {
		totalCacheStats.warmMisses.Add(1)
	}
}
