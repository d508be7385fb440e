package core

// This file is the two-stage entry point the design-space sweep
// (internal/explore) is built on. A single Retime call runs the six-pass flow
// front to back; a sweep over many candidate periods wants to run the model
// half (steps 1-3: mc-graph, bounds, sharing) once, then the solve half
// (steps 4-6) once per period — concurrently, against shared read-only state.
//
// Prepare runs exactly the passes Retime runs for steps 1-3 and freezes the
// result. From it:
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
	"mcretiming/internal/pass"
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

	anchorOnce sync.Once
	anchorOut  *netlist.Circuit
	anchorRep  *Report
	anchorErr  error
	seed       []graph.Cut // cut-pool snapshot taken after the anchor solve

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
	pc := startFlow(ctx, c, opts)
	if err := preparePasses().Run(pc); err != nil {
		return nil, err
	}
	st := pc.State
	return &Prepared{
		in:      c,
		opts:    opts,
		st:      st,
		baseRep: *st.rep,
	}, nil
}

// solveState builds a private flow state for one solve over the prepared
// model: shared immutable artifacts (mc-graph, bounds info, solver graph),
// private mutable ones (bounds clone, pool, probe ladder, report). The caller
// returns lad to the slot when the solve is done.
func (p *Prepared) solveState(opts Options, pool *graph.CutPool) *flowState {
	rep := p.baseRep
	rep.PassTimes = append([]PassTime(nil), p.baseRep.PassTimes...)
	rep.Degraded = append([]string(nil), p.baseRep.Degraded...)
	return &flowState{
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
}

// runSolve executes the solve half (steps 4-6 under the §5.2 retry loop) on
// st and returns the retimed circuit with its report.
func runSolve(ctx context.Context, sink trace.Sink, st *flowState) (*netlist.Circuit, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sink == nil {
		sink = trace.Nop()
	}
	pc := pass.NewContext(trace.With(ctx, sink), sink, st)
	pc.Observe = st.observe
	if err := solvePasses(st.opts).Run(pc); err != nil {
		return nil, nil, err
	}
	return st.out, st.rep, nil
}

// Anchor runs (once) the MinAreaAtMinPeriod solve on the prepared state and
// returns its circuit and report; later calls return the memoized result.
// This is the sweep's φ* endpoint, and its inputs — the pristine post-share
// bounds and an empty cut pool — are exactly what Retime's solve
// half would see, so the output is bit-for-bit the single-point
// Retime(MinAreaAtMinPeriod) result.
//
// The first caller's ctx and sink drive the solve. The returned report is
// shared: callers must not mutate it.
func (p *Prepared) Anchor(ctx context.Context, sink trace.Sink) (*netlist.Circuit, *Report, error) {
	p.anchorOnce.Do(func() {
		opts := p.opts
		opts.Objective = MinAreaAtMinPeriod
		st := p.solveState(opts, &graph.CutPool{})
		out, rep, err := runSolve(ctx, sink, st)
		p.putLadder(st.lad)
		if err != nil {
			p.anchorErr = err
			return
		}
		p.anchorOut, p.anchorRep = out, rep
		// The anchor's cuts seed every per-period solve: a period cut is a
		// property of a graph path, so it stays valid under any bounds and any
		// target period (ForPeriod filters by path delay).
		p.seed = st.pool.Snapshot()
	})
	return p.anchorOut, p.anchorRep, p.anchorErr
}

// MinPeriod returns the minimum feasible clock period found by the anchor
// solve (0 before Anchor has run).
func (p *Prepared) MinPeriod() int64 {
	if p.anchorRep == nil {
		return 0
	}
	return p.anchorRep.PeriodAfter
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
// points). The first call triggers the anchor solve if it has not run yet, so
// every point benefits from the seed cuts.
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
	pool := graph.NewCutPool(append([]graph.Cut(nil), p.seed...))
	st := p.solveState(opts, pool)
	out, rep, err := runSolve(ctx, sink, st)
	p.putLadder(st.lad)
	return out, rep, err
}
