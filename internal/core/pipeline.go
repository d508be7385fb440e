package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mcretiming/internal/check"
	"mcretiming/internal/graph"
	"mcretiming/internal/justify"
	"mcretiming/internal/mcf"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/pass"
	"mcretiming/internal/retime"
	"mcretiming/internal/rterr"
	"mcretiming/internal/trace"
)

// Pass names: the six steps of paper §5 plus the §5.2 retry combinator
// wrapping steps 4-6. These are the span names a trace sink sees and the
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

// flowState is the shared state the pipeline passes read and mutate.
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

	r   []int32 // candidate retiming over all solver vertices
	phi int64   // achieved/target period of r

	out *netlist.Circuit
}

// RetimeCtx is Retime with cancellation: ctx aborts the long-running solver
// loops (lazy cut generation, min-cost-flow augmentation, justification)
// promptly with the context's error, leaving c unmodified.
func RetimeCtx(ctx context.Context, c *netlist.Circuit, opts Options) (*netlist.Circuit, *Report, error) {
	pc := startFlow(ctx, c, opts)
	if err := pipeline(opts).Run(pc); err != nil {
		return nil, nil, err
	}
	return pc.State.out, pc.State.rep, nil
}

// startFlow builds a fresh flow state for c under opts and the pass context
// that runs the pipeline over it: trace sink and per-pass wall times folded
// into the report.
func startFlow(ctx context.Context, c *netlist.Circuit, opts Options) *pass.Context[flowState] {
	if ctx == nil {
		ctx = context.Background()
	}
	sink := opts.Trace
	if sink == nil {
		sink = trace.Nop()
	}
	st := &flowState{in: c, opts: opts, rep: &Report{}, pool: &graph.CutPool{}}
	pc := pass.NewContext(trace.With(ctx, sink), sink, st)
	pc.Observe = st.observe
	return pc
}

// pipeline assembles the retiming flow for opts: steps 1-3, then the §5.2
// retry combinator around steps 4-6. Every pass is wrapped by the invariant
// checker, active when opts enables it.
//
// The two halves are split out so the exploration sweep (prepared.go) can run
// the model half once per circuit and the solve half once per target period,
// with the guarantee that both halves are literally the passes Retime runs.
func pipeline(opts Options) pass.Pipeline[flowState] {
	return append(preparePasses(), solvePasses(opts)...)
}

// preparePasses is the model half of the flow: steps 1-3 of §5.
func preparePasses() pass.Pipeline[flowState] {
	return pass.Pipeline[flowState]{
		checked(pass.Pass[flowState]{Name: PassBuild, Run: runBuild}),
		checked(pass.Pass[flowState]{Name: PassBounds, Run: runBounds}),
		checked(pass.Pass[flowState]{Name: PassShare, Run: runShare}),
	}
}

// solvePasses is the solve+implement half of the flow: steps 4-6 of §5 under
// the §5.2 re-retiming combinator.
func solvePasses(opts Options) pass.Pipeline[flowState] {
	return pass.Pipeline[flowState]{
		pass.Retry(PassRetry, effectiveMaxRetries(opts),
			pass.Pipeline[flowState]{
				checked(pass.Pass[flowState]{Name: PassMinPeriod, Run: runMinPeriod}),
				checked(pass.Pass[flowState]{Name: PassMinArea, Run: runMinArea}),
				checked(pass.Pass[flowState]{Name: PassRelocate, Run: runRelocate}),
			},
			recoverJustifyConflict),
	}
}

// checked wraps a pass so the invariant checker of internal/check runs after
// a successful execution when Options.CheckInvariants asks for it.
func checked(p pass.Pass[flowState]) pass.Pass[flowState] {
	return pass.Pass[flowState]{Name: p.Name, Run: func(pc *pass.Context[flowState]) error {
		if err := p.Run(pc); err != nil {
			return err
		}
		s := pc.State
		if !s.opts.checksEnabled() {
			return nil
		}
		if err := s.checkAfter(p.Name); err != nil {
			return fmt.Errorf("core: after pass %s: %w", p.Name, err)
		}
		return nil
	}}
}

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
// plus the coarse Table 2 aggregates. Combinator wrappers are skipped — their
// children already account for the time.
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
func runBuild(pc *pass.Context[flowState]) error {
	s := pc.State
	m, err := mcgraph.Build(s.in)
	if err != nil {
		return err
	}
	s.m = m
	s.rep.NumClasses = len(m.Classes)
	s.rep.ClassTable = m.ClassSummary()
	s.rep.RegsBefore = s.in.NumRegs()
	pc.Sink.Add("classes", int64(len(m.Classes)))
	return nil
}

// runBounds is step 2: per-vertex retiming bounds by maximal backward and
// forward retiming.
func runBounds(pc *pass.Context[flowState]) error {
	s := pc.State
	info, err := s.m.ComputeBoundsCtx(pc.Ctx())
	if err != nil {
		return err
	}
	s.info = info
	s.rep.StepsPossible = s.info.StepsPossible
	pc.Sink.Add("steps-possible", s.info.StepsPossible)
	return nil
}

// runShare is step 3: the sharing modification (§4.2 separation vertices)
// and the basic-retiming solver graph, plus the baseline period.
func runShare(pc *pass.Context[flowState]) error {
	s := pc.State
	if s.opts.DisableSharing {
		s.g = s.m.ToGraph()
		s.bounds = s.info.GraphBounds(s.m)
	} else {
		g, bounds, err := s.m.AreaGraph(pc.Ctx(), s.info)
		if err != nil {
			return err
		}
		s.g, s.bounds = g, bounds
	}
	// The solver graph is final from here on. One probe ladder serves the
	// whole solve session: minperiod's binary-search probes, the minarea
	// feasibility solves, and the §5.2 retry reruns all warm-start from the
	// last feasible labeling instead of re-seeding SPFA, and they share
	// s.pool's cuts. The flow runs its passes sequentially, so the single
	// ladder is safe.
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
func runMinPeriod(pc *pass.Context[flowState]) error {
	s := pc.State
	switch s.opts.Objective {
	case MinPeriod, MinAreaAtMinPeriod:
		phi, r, err := s.g.MinPeriodLazy(pc.Ctx(), s.bounds, s.pool, s.lad)
		if err != nil {
			return err
		}
		s.phi, s.r = phi, r
		if s.opts.checksEnabled() && minPeriodCrossCheck != nil {
			if err := minPeriodCrossCheck(pc.Ctx(), s.g, s.bounds, phi); err != nil {
				return fmt.Errorf("core: min period cross-check: %w", err)
			}
		}
	case MinAreaAtPeriod:
		r, ok, err := s.g.FeasibleLazy(pc.Ctx(), s.opts.TargetPeriod, s.bounds, s.pool, s.lad)
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
func runMinArea(pc *pass.Context[flowState]) error {
	s := pc.State
	if s.opts.Objective == MinPeriod {
		return nil
	}
	lim := retime.Limits{
		MaxRounds:         s.opts.Budgets.MinAreaRounds,
		FlowAugmentations: s.opts.Budgets.FlowAugmentations,
	}
	r, err := retime.MinAreaLazy(pc.Ctx(), s.g, s.phi, s.bounds, s.pool, lim)
	if err != nil {
		if pc.Err() != nil {
			return err
		}
		if errors.Is(err, rterr.ErrBudgetExceeded) || errors.Is(err, mcf.ErrInfeasible) {
			s.rep.Degraded = append(s.rep.Degraded,
				fmt.Sprintf("minarea at period %d: %v; keeping the feasible minperiod retiming", s.phi, err))
			pc.Sink.Add("minarea-degraded", 1)
			return nil // s.r still holds step 4's feasible retiming
		}
		return err
	}
	s.r = r
	return nil
}

// runRelocate is step 6: implement the retiming on a clone of the mc-graph,
// computing equivalent reset states move by move, and rebuild the circuit.
func runRelocate(pc *pass.Context[flowState]) error {
	s := pc.State
	work := s.m.Clone()
	var hooks mcgraph.Hooks
	var j *justify.Justifier
	if s.opts.DisableJustify {
		hooks = mcgraph.NaiveHooks{}
	} else {
		j = justify.New(work)
		j.Ctx = pc.Ctx()
		j.BDDNodes = s.opts.Budgets.BDDNodes
		j.SATConflicts = s.opts.Budgets.SATConflicts
		hooks = j
	}
	stats, err := work.Relocate(s.r, hooks)
	if j != nil {
		// Counters accumulate across retries; the Report keeps the final
		// attempt's totals, as before the pipeline refactor.
		pc.Sink.Add("justify-local", int64(j.Stats.LocalSteps))
		pc.Sink.Add("justify-global", int64(j.Stats.GlobalSteps))
		pc.Sink.Add("justify-conflicts", int64(j.Stats.Conflicts))
		pc.Sink.Add("justify-escalations", int64(j.Stats.Escalations))
		s.rep.JustifyLocal = j.Stats.LocalSteps
		s.rep.JustifyGlobal = j.Stats.GlobalSteps
		s.rep.JustifyConflicts = j.Stats.Conflicts
		s.rep.JustifyEscalations += j.Stats.Escalations
	}
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
func recoverJustifyConflict(pc *pass.Context[flowState], err error) bool {
	var je *mcgraph.ErrJustify
	if !errors.As(err, &je) {
		return false
	}
	s := pc.State
	s.rep.Retries++
	for _, cf := range je.Conflicts {
		if cf.Achieved < s.bounds.Max[cf.V] {
			s.bounds.Max[cf.V] = cf.Achieved
			pc.Sink.Add("bounds-tightened", 1)
		}
	}
	return true
}
