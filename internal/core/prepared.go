package core

// This file is the two-stage entry point the design-space sweep
// (internal/explore) is built on. A single Retime call runs the six-pass flow
// front to back; a sweep over many candidate periods wants to run the model
// half (steps 1-3: mc-graph, bounds, sharing) once, then the solve half
// (steps 4-6) once per period — concurrently, against shared read-only state.
//
// Prepare runs exactly the steps 1-3 Retime runs (flowState.prepare) and
// freezes the result. From it:
//
//   - Anchor runs steps 4-6 with the MinAreaAtMinPeriod objective on the
//     prepared state, using an empty cut pool and the pristine bounds — the
//     identical inputs Retime's solve half sees — so the anchor circuit is
//     bit-for-bit the single-point Retime result, by construction rather
//     than by luck. It also snapshots the cut pool the
//     solve accumulated, which seeds every per-period solve.
//
//   - SolveAtPeriod runs steps 4-6 with the MinAreaAtPeriod objective at one
//     target period, on fully private mutable state: a clone of the pristine
//     bounds (the §5.2 loop tightens bounds in place), a private cut pool
//     seeded from the anchor snapshot (period cuts are graph-path properties,
//     valid under any bounds), and a probe ladder of its own (see
//     ladderSlot). The sweep's parallelism lives across points; each solve
//     is serial.
//
//   - Candidates returns the distinct D-matrix entries — the only periods at
//     which the feasible front can step (a critical path's delay is a D
//     entry), hence the sweep's probe set.

import (
	"context"
	"sync"
	"sync/atomic"

	"mcretiming/internal/graph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/trace"
)

// Prepared is a circuit with the model half of the retiming flow (steps 1-3)
// done: ready to solve at any number of target periods. Safe for concurrent
// use once Prepare returns.
type Prepared struct {
	in   *netlist.Circuit
	opts Options

	st      *flowState // frozen post-share state; never mutated after Prepare
	baseRep Report     // report fields of steps 1-3

	// anchorMu guards the memoized anchor: anchorOut, anchorRep and seed are
	// set together, once, by the first anchor solve that succeeds.
	anchorMu  sync.Mutex
	anchorOut *netlist.Circuit
	anchorRep *Report
	seed      []graph.Cut // cut-pool snapshot taken after the anchor solve

	// ladderSlot is a single-slot pool of probe ladders (warm SPFA state,
	// see graph.ProbeLadder). A solve takes the slot's ladder — or a fresh one
	// when the slot is empty or another solve holds it — and returns it when
	// done. Serial solve sequences (the anchor, a serial sweep, repeated
	// SolveAtPeriod calls) therefore share one ladder and warm-start each
	// other; concurrent solves degrade to private ladders without locking.
	ladderSlot atomic.Pointer[graph.ProbeLadder]
}

// takeLadder pops the shared probe ladder, or makes a fresh one if the slot
// is empty (first solve, or a concurrent solve holds it).
func (p *Prepared) takeLadder() *graph.ProbeLadder {
	if lad := p.ladderSlot.Swap(nil); lad != nil {
		return lad
	}
	return graph.NewProbeLadder()
}

// putLadder returns a ladder to the slot for the next solve to warm-start
// from. Under concurrency the last returner wins; the dropped ladder is just
// buffers.
func (p *Prepared) putLadder(lad *graph.ProbeLadder) { p.ladderSlot.Store(lad) }

// Prepare runs steps 1-3 of the flow on c and returns the reusable state.
// opts is the option set every subsequent solve inherits (SolveAtPeriod
// overrides the objective and target period per call).
func Prepare(ctx context.Context, c *netlist.Circuit, opts Options) (*Prepared, error) {
	st := &flowState{in: c, opts: opts, rep: &Report{}, pool: &graph.CutPool{}}
	if err := st.prepare(traced(ctx, opts.Trace)); err != nil {
		return nil, err
	}
	return &Prepared{
		in:      c,
		opts:    opts,
		st:      st,
		baseRep: *st.rep,
	}, nil
}

// solve runs the solve half (steps 4-6 under the §5.2 retry loop) for opts
// on a private flow state over the prepared model: shared immutable
// artifacts (mc-graph, bounds info, solver graph), private mutable ones
// (bounds clone, pool, probe ladder, report). It returns that state, whose
// out and rep hold the result when err is nil.
func (p *Prepared) solve(ctx context.Context, sink trace.Sink, opts Options, pool *graph.CutPool) (*flowState, error) {
	rep := p.baseRep
	rep.PassTimes = append([]PassTime(nil), p.baseRep.PassTimes...)
	rep.Degraded = append([]string(nil), p.baseRep.Degraded...)
	st := &flowState{
		in:     p.in,
		opts:   opts,
		rep:    &rep,
		m:      p.st.m,
		info:   p.st.info,
		g:      p.st.g,
		bounds: p.st.bounds.Clone(),
		pool:   pool,
		lad:    p.takeLadder(),
	}
	err := st.solve(traced(ctx, sink), runMinPeriod, runMinArea)
	p.putLadder(st.lad)
	return st, err
}

// Anchor runs the MinAreaAtMinPeriod solve on the prepared state and returns
// its circuit and report; once a call succeeds, later calls return its
// memoized result. This is the sweep's φ* endpoint, and its inputs — the
// pristine post-share bounds and an empty cut pool — are exactly what
// Retime's solve half would see, so the output is bit-for-bit the
// single-point Retime(MinAreaAtMinPeriod) result.
//
// The ctx and sink of the first successful call drive the solve. A failed
// solve (cancelled, past its deadline, or failing) is not memoized: its
// error goes to its caller and the next call solves again. Concurrent calls
// wait for the one solving. The returned report is shared: callers must not
// mutate it.
func (p *Prepared) Anchor(ctx context.Context, sink trace.Sink) (*netlist.Circuit, *Report, error) {
	p.anchorMu.Lock()
	defer p.anchorMu.Unlock()
	if p.anchorOut == nil {
		opts := p.opts
		opts.Objective = MinAreaAtMinPeriod
		st, err := p.solve(ctx, sink, opts, &graph.CutPool{})
		if err != nil {
			return nil, nil, err
		}
		p.anchorOut, p.anchorRep = st.out, st.rep
		// The anchor's cuts seed every per-period solve: a period cut is a
		// property of a graph path, so it stays valid under any bounds and any
		// target period (ForPeriod filters by path delay).
		p.seed = st.pool.Snapshot()
	}
	return p.anchorOut, p.anchorRep, nil
}

// BaselinePeriod returns the circuit's clock period before retiming.
func (p *Prepared) BaselinePeriod() int64 { return p.baseRep.PeriodBefore }

// RegsBefore returns the circuit's register count before retiming.
func (p *Prepared) RegsBefore() int { return p.baseRep.RegsBefore }

// Candidates returns the candidate clock periods of the sweep: the distinct
// path-delay (D) values, ascending. Every critical path's delay is a D
// entry, so the feasible period↔area front can only step at these values;
// probing anything else is provably redundant.
//
// They are streamed per source (graph.CandidatePeriods) with an early cutoff
// at the largest vertex delay — no feasible period is below it, and the sweep
// only probes periods above the minimum feasible one, so the pruned tail is
// unreachable by construction. No W/D matrix is materialized.
func (p *Prepared) Candidates(ctx context.Context) ([]int64, error) {
	return p.st.g.CandidatePeriods(ctx, p.st.g.MaxDelay())
}

// SolveAtPeriod runs a MinAreaAtPeriod solve at target period phi on private
// state and returns the retimed circuit and report. Safe to call from many
// goroutines at once: each call clones the pristine bounds and seeds a
// private cut pool from the anchor snapshot (the sweep parallelizes across
// points). A call triggers the anchor solve if no Anchor call has succeeded
// yet, so every point benefits from the seed cuts.
//
// The result is deterministic per phi — independent of sweep parallelism and
// of which other periods are being solved — because no mutable state is
// shared.
func (p *Prepared) SolveAtPeriod(ctx context.Context, phi int64, sink trace.Sink) (*netlist.Circuit, *Report, error) {
	if _, _, err := p.Anchor(ctx, nil); err != nil {
		return nil, nil, err
	}
	opts := p.opts
	opts.Objective = MinAreaAtPeriod
	opts.TargetPeriod = phi
	// A successful Anchor set p.seed under anchorMu before returning, and it
	// is never written again.
	st, err := p.solve(ctx, sink, opts, graph.NewCutPool(append([]graph.Cut(nil), p.seed...)))
	if err != nil {
		return nil, nil, err
	}
	return st.out, st.rep, nil
}
