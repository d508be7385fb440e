package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"mcretiming/internal/check"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/graph"
	"mcretiming/internal/justify"
	"mcretiming/internal/mcf"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/retime"
	"mcretiming/internal/rterr"
	"mcretiming/internal/trace"
)

// Pass names: the six steps of paper §5 plus the §5.2 re-retiming loop
// around steps 4-6. These are the span names a trace sink sees and the
// keys of Report.PassTimes.
const (
	PassBuild     = "build-mcgraph" // step 1: circuit -> mc-graph, classes
	PassBounds    = "bounds"        // step 2: maximal backward/forward retiming
	PassShare     = "share"         // step 3: sharing modification, solver graph
	PassMinPeriod = "minperiod"     // step 4: minimum feasible clock period
	PassMinArea   = "minarea"       // step 5: minimum-area retiming at the period
	PassRelocate  = "relocate"      // step 6: relocation + equivalent reset states
	PassRetry     = "solve+implement"
)

// flowState is the shared state the flow's steps read and mutate.
type flowState struct {
	in   *netlist.Circuit
	opts Options
	rep  *Report

	m      *mcgraph.MC
	info   *mcgraph.BoundsInfo
	g      *graph.Graph
	bounds *graph.Bounds
	pool   *graph.CutPool

	lad *graph.ProbeLadder // warm SPFA state of the solve session (set in runShare)
	// area is the minarea flow of the solve session: a §5.2 retry resumes
	// it instead of solving cold (see retime.Session).
	area retime.Session

	r   []int32 // candidate retiming over all solver vertices
	phi int64   // achieved/target period of r

	out *netlist.Circuit

	trail []string // names of the passes currently running, outermost first
}

// RetimeCtx is Retime with cancellation: ctx aborts the long-running solver
// loops (lazy cut generation, min-cost-flow augmentation, justification)
// promptly with the context's error, leaving c unmodified.
func RetimeCtx(ctx context.Context, c *netlist.Circuit, opts Options) (*netlist.Circuit, *Report, error) {
	ctx = traced(ctx, opts.Trace)
	s := &flowState{in: c, opts: opts, rep: &Report{}, pool: &graph.CutPool{}}
	if err := s.prepare(ctx); err != nil {
		return nil, nil, err
	}
	if err := s.solve(ctx, runMinPeriod, runMinArea); err != nil {
		return nil, nil, err
	}
	return s.out, s.rep, nil
}

// traced returns ctx (context.Background when nil) carrying sink, from which
// every step and solver loop of the flow reads it with trace.From. A nil sink
// means no tracing.
func traced(ctx context.Context, sink trace.Sink) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return trace.With(ctx, sink)
}

// stepFunc is one step of the flow over its shared state.
type stepFunc func(ctx context.Context, s *flowState) error

// prepare is the model half of the flow: steps 1-3 of §5.
func (s *flowState) prepare(ctx context.Context) error {
	if err := s.run(ctx, PassBuild, runBuild); err != nil {
		return err
	}
	if err := s.run(ctx, PassBounds, runBounds); err != nil {
		return err
	}
	return s.run(ctx, PassShare, runShare)
}

// solve is the solve+implement half of the flow: steps 4-6 of §5, with
// minPeriod and minArea as steps 4 and 5 (the oracle tests pass reference
// solvers), inside the §5.2 re-retiming loop. When relocation fails with an
// error recoverJustifyConflict repairs, the three steps run again, at most
// effectiveMaxRetries times. Cancellation is never retried.
func (s *flowState) solve(ctx context.Context, minPeriod, minArea stepFunc) error {
	return s.run(ctx, PassRetry, func(ctx context.Context, _ *flowState) error {
		for retries := 0; ; retries++ {
			err := s.run(ctx, PassMinPeriod, minPeriod)
			if err == nil {
				err = s.run(ctx, PassMinArea, minArea)
			}
			if err == nil {
				err = s.run(ctx, PassRelocate, runRelocate)
			}
			if err == nil || ctx.Err() != nil || retries >= effectiveMaxRetries(s.opts) ||
				!s.recoverJustifyConflict(ctx, err) {
				return err
			}
		}
	})
}

// run executes step as the pass called name. A cancelled ctx stops the flow
// before the pass starts. The pass runs inside its own trace span and the
// "pass.<name>" failpoint; a crash is recovered into a PanicError; after a
// successful step the invariants of internal/check run when
// Options.CheckInvariants (or the test binary) asks for them; and the pass's
// wall time is folded into the report.
func (s *flowState) run(ctx context.Context, name string, step stepFunc) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	sink := trace.From(ctx)
	sink.BeginSpan(name)
	s.trail = append(s.trail, name)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{
				Pass:  name,
				Trail: append([]string(nil), s.trail...),
				Value: r,
				Stack: debug.Stack(),
			}
		}
		s.trail = s.trail[:len(s.trail)-1]
		sink.EndSpan()
		s.observe(name, time.Since(start))
	}()
	// Chaos hook: "pass.<name>" fires inside the span and inside the panic
	// recovery above, so an injected crash surfaces as the same PanicError a
	// real one would.
	if err := failpoint.Inject(ctx, "pass."+name); err != nil {
		return err
	}
	if err := step(ctx, s); err != nil {
		return err
	}
	if !s.opts.checksEnabled() {
		return nil
	}
	if err := s.checkAfter(name); err != nil {
		return fmt.Errorf("core: after pass %s: %w", name, err)
	}
	return nil
}

// PanicError is the error a crashing pass is converted into at its run
// boundary: instead of taking the process down, the crash surfaces as a
// diagnosable error carrying the pass name, the span trail leading to it,
// the recovered value, and the goroutine stack at the crash site.
//
// It wraps rterr.ErrInternal, so errors.Is(err, rterr.ErrInternal) detects
// engine crashes without depending on this package.
type PanicError struct {
	Pass  string   // the pass that crashed
	Trail []string // pass names on the stack, outermost first
	Value any      // the recovered value
	Stack []byte   // debug.Stack() captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pass %q crashed (trail %v): %v", e.Pass, e.Trail, e.Value)
}

// Unwrap ties pass crashes into the error taxonomy.
func (e *PanicError) Unwrap() error { return rterr.ErrInternal }

// checkAfter runs the invariants that are meaningful once the named pass has
// produced its part of the flow state.
func (s *flowState) checkAfter(name string) error {
	switch name {
	case PassBuild, PassBounds:
		return check.MC(s.m)
	case PassShare:
		return check.Graph(s.g)
	case PassMinPeriod, PassMinArea:
		if s.r == nil {
			return nil // MinPeriod objective skips step 5's re-solve
		}
		if err := check.Graph(s.g); err != nil {
			return err
		}
		return check.Solution(s.g, s.r, s.bounds, s.phi)
	case PassRelocate:
		return check.Circuit(s.out)
	}
	return nil
}

// observe folds per-pass wall times into the report: the named breakdown
// plus the coarse Table 2 aggregates. The solve+implement loop is skipped:
// its steps already account for the time.
func (s *flowState) observe(name string, wall time.Duration) {
	switch name {
	case PassBuild, PassBounds, PassShare:
		s.rep.TimeModel += wall
	case PassMinPeriod, PassMinArea:
		s.rep.TimeSolve += wall
	case PassRelocate:
		s.rep.TimeVerify += wall
	default:
		return
	}
	for i := range s.rep.PassTimes {
		if s.rep.PassTimes[i].Name == name {
			s.rep.PassTimes[i].Wall += wall
			return
		}
	}
	s.rep.PassTimes = append(s.rep.PassTimes, PassTime{Name: name, Wall: wall})
}

// runBuild is step 1: the mc-graph and the register classes.
func runBuild(ctx context.Context, s *flowState) error {
	m, err := mcgraph.Build(s.in)
	if err != nil {
		return err
	}
	s.m = m
	s.rep.NumClasses = len(m.Classes)
	s.rep.ClassTable = m.ClassSummary()
	s.rep.RegsBefore = s.in.NumRegs()
	trace.From(ctx).Add("classes", int64(len(m.Classes)))
	return nil
}

// runBounds is step 2: per-vertex retiming bounds by maximal backward and
// forward retiming.
func runBounds(ctx context.Context, s *flowState) error {
	info, err := s.m.ComputeBoundsCtx(ctx)
	if err != nil {
		return err
	}
	s.info = info
	s.rep.StepsPossible = s.info.StepsPossible
	trace.From(ctx).Add("steps-possible", s.info.StepsPossible)
	return nil
}

// runShare is step 3: the sharing modification (§4.2 separation vertices)
// and the basic-retiming solver graph, plus the baseline period.
func runShare(ctx context.Context, s *flowState) error {
	if s.opts.DisableSharing {
		s.g = s.m.ToGraph()
		s.bounds = s.info.GraphBounds(s.m)
	} else {
		g, bounds, err := s.m.AreaGraph(ctx, s.info)
		if err != nil {
			return err
		}
		s.g, s.bounds = g, bounds
	}
	// The solver graph is final from here on. One probe ladder serves the
	// whole solve session: every minperiod probe after the first warm-starts
	// from the last feasible labeling instead of re-seeding SPFA, and the
	// probes share s.pool's cuts. A §5.2 retry tightens s.bounds in place,
	// so boundsMatch rejects the checkpoint and the retry's first probe
	// seeds cold: one cold start per attempt. The flow runs its passes
	// sequentially, so the single ladder is safe.
	s.lad = graph.NewProbeLadder()
	if s.opts.ForwardOnly {
		for v := range s.bounds.Max {
			if s.bounds.Max[v] > 0 || s.bounds.Max[v] == graph.NoUpper {
				s.bounds.Max[v] = 0
			}
		}
	}
	var err error
	if s.rep.PeriodBefore, err = s.g.Period(nil); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// minPeriodCrossCheck, when set, re-derives the minimum period of every
// checked solve with an independent reference and returns an error on
// disagreement. Production leaves it nil; the package's test binary installs
// the dense W/D oracle (internal/oracle), which no binary links.
var minPeriodCrossCheck func(ctx context.Context, g *graph.Graph, b *graph.Bounds, phi int64) error

// runMinPeriod is step 4: the minimum feasible clock period under the
// bounds — or, for MinAreaAtPeriod, the feasibility probe of the target —
// by the warm-started lazy search.
func runMinPeriod(ctx context.Context, s *flowState) error {
	switch s.opts.Objective {
	case MinPeriod, MinAreaAtMinPeriod:
		phi, r, err := s.g.MinPeriodLazy(ctx, s.bounds, s.pool, s.lad)
		if err != nil {
			return err
		}
		s.phi, s.r = phi, r
		if s.opts.checksEnabled() && minPeriodCrossCheck != nil {
			if err := minPeriodCrossCheck(ctx, s.g, s.bounds, phi); err != nil {
				return fmt.Errorf("core: min period cross-check: %w", err)
			}
		}
	case MinAreaAtPeriod:
		r, ok, err := s.g.FeasibleLazy(ctx, s.opts.TargetPeriod, s.bounds, s.pool, s.lad)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("core: target period %d infeasible: %w", s.opts.TargetPeriod, rterr.ErrInfeasiblePeriod)
		}
		s.phi, s.r = s.opts.TargetPeriod, r
	default:
		return fmt.Errorf("core: unknown objective %d", s.opts.Objective)
	}
	return nil
}

// runMinArea is step 5: minimum shared-register area at the period. For the
// MinPeriod objective the feasible retiming of step 4 already is the result.
//
// The minarea solve is optional quality: if its flow or round budget blows,
// or the min-cost-flow dual fails, the pass degrades to the feasible
// minperiod retiming of step 4 and records the downgrade in Report.Degraded
// instead of failing the whole flow.
func runMinArea(ctx context.Context, s *flowState) error {
	if s.opts.Objective == MinPeriod {
		return nil
	}
	lim := retime.Limits{
		MaxRounds:         s.opts.Budgets.MinAreaRounds,
		FlowAugmentations: s.opts.Budgets.FlowAugmentations,
	}
	r, err := s.area.MinArea(ctx, s.g, s.phi, s.bounds, s.pool, lim)
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		if errors.Is(err, rterr.ErrBudgetExceeded) || errors.Is(err, mcf.ErrInfeasible) {
			s.rep.Degraded = append(s.rep.Degraded,
				fmt.Sprintf("minarea at period %d: %v; keeping the feasible minperiod retiming", s.phi, err))
			trace.From(ctx).Add("minarea-degraded", 1)
			return nil // s.r still holds step 4's feasible retiming
		}
		return err
	}
	s.r = r
	return nil
}

// runRelocate is step 6: implement the retiming on a clone of the mc-graph,
// computing equivalent reset states move by move, and rebuild the circuit.
func runRelocate(ctx context.Context, s *flowState) error {
	work := s.m.Clone()
	var hooks mcgraph.Hooks
	var j *justify.Justifier
	if s.opts.DisableJustify {
		hooks = mcgraph.NaiveHooks{}
	} else {
		j = justify.New(work)
		j.Ctx = ctx
		j.BDDNodes = s.opts.Budgets.BDDNodes
		j.SATConflicts = s.opts.Budgets.SATConflicts
		hooks = j
	}
	stats, err := work.Relocate(s.r, hooks)
	att := Attempt{PeriodAfter: s.phi}
	if j != nil {
		// Counters accumulate across retries; the Report's Justify fields
		// keep the final attempt's totals, its Attempts every attempt's.
		sink := trace.From(ctx)
		sink.Add("justify-local", int64(j.Stats.LocalSteps))
		sink.Add("justify-global", int64(j.Stats.GlobalSteps))
		sink.Add("justify-conflicts", int64(j.Stats.Conflicts))
		sink.Add("justify-escalations", int64(j.Stats.Escalations))
		s.rep.JustifyLocal = j.Stats.LocalSteps
		s.rep.JustifyGlobal = j.Stats.GlobalSteps
		s.rep.JustifyConflicts = j.Stats.Conflicts
		s.rep.JustifyEscalations += j.Stats.Escalations
		att.JustifyLocal, att.JustifyGlobal, att.JustifyConflicts = j.Stats.LocalSteps, j.Stats.GlobalSteps, j.Stats.Conflicts
	}
	s.rep.Attempts = append(s.rep.Attempts, att)
	if err != nil {
		return err
	}
	s.rep.BackwardSteps = stats.BackwardSteps
	s.rep.ForwardSteps = stats.ForwardSteps
	s.rep.StepsMoved = stats.LayersMoved
	s.rep.PeriodAfter = s.phi

	out, err := work.Rebuild(s.in.Name + "_retimed")
	if err != nil {
		return err
	}
	s.rep.RegsAfter = out.NumRegs()
	s.out = out
	return nil
}

// recoverJustifyConflict implements §5.2: on an ErrJustify from relocation,
// forbid the non-justifiable backward moves by tightening the offending
// vertices' bounds and ask for a re-solve. All conflicts of a pass are
// harvested at once, so a handful of retries suffices. The pooled period
// cuts stay valid — only the bounds changed.
func (s *flowState) recoverJustifyConflict(ctx context.Context, err error) bool {
	var je *mcgraph.ErrJustify
	if !errors.As(err, &je) {
		return false
	}
	s.rep.Retries++
	for _, cf := range je.Conflicts {
		if cf.Achieved < s.bounds.Max[cf.V] {
			s.bounds.Max[cf.V] = cf.Achieved
			trace.From(ctx).Add("bounds-tightened", 1)
		}
	}
	return true
}
