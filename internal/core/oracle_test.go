package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mcretiming/internal/hdlio"
	"mcretiming/internal/mcf"
	"mcretiming/internal/netlist"
	"mcretiming/internal/pass"
	"mcretiming/internal/retime"
	"mcretiming/internal/rterr"
)

// The flow has one production solve core (runMinPeriod/runMinArea: the
// warm-started lazy search and the cutting-plane minarea loop). The oracles
// below swap that core for the reference solvers the graph and retime
// packages keep — and reuse every other pass of the flow verbatim, so any
// divergence they find localizes to the period/area solvers.

// circuitText serializes a circuit for bit-identical comparison.
func circuitText(t *testing.T, c *netlist.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := hdlio.Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// oracle names a reference solve core.
type oracle int

const (
	// oracleCold is the lazy search with probe warm-starting off: every
	// binary-search probe re-seeds and re-solves the full difference system.
	oracleCold oracle = iota
	// oracleDense is the W/D formulation: candidate binary search and full
	// period-constraint enumeration for minperiod, the dense min-cost-flow
	// program for minarea.
	oracleDense
)

func (o oracle) String() string {
	if o == oracleDense {
		return "dense"
	}
	return "cold"
}

// retimeOracle is Retime with the solve core of steps 4-5 replaced by the
// reference path o. Steps 1-3, relocation, the §5.2 retry loop and the
// invariant checker are the production passes.
func retimeOracle(c *netlist.Circuit, opts Options, o oracle) (*netlist.Circuit, *Report, error) {
	pc := startFlow(context.Background(), c, opts)
	minPeriod, minArea := runMinPeriod, runMinArea
	p := preparePasses()
	switch o {
	case oracleCold:
		p = append(p, pass.Pass[flowState]{Name: "cold-probes", Run: func(pc *pass.Context[flowState]) error {
			pc.State.lad = nil
			return nil
		}})
	case oracleDense:
		minPeriod, minArea = runMinPeriodDense, runMinAreaDense
	}
	p = append(p, pass.Retry(PassRetry, effectiveMaxRetries(opts),
		pass.Pipeline[flowState]{
			checked(pass.Pass[flowState]{Name: PassMinPeriod, Run: minPeriod}),
			checked(pass.Pass[flowState]{Name: PassMinArea, Run: minArea}),
			checked(pass.Pass[flowState]{Name: PassRelocate, Run: runRelocate}),
		},
		recoverJustifyConflict))
	if err := p.Run(pc); err != nil {
		return nil, nil, err
	}
	return pc.State.out, pc.State.rep, nil
}

// runMinPeriodDense is step 4 on the dense reference: W/D of the solver
// graph, candidate binary search, full period-constraint enumeration.
func runMinPeriodDense(pc *pass.Context[flowState]) error {
	s := pc.State
	wd, err := s.g.ComputeWD(pc.Ctx())
	if err != nil {
		return err
	}
	switch s.opts.Objective {
	case MinPeriod, MinAreaAtMinPeriod:
		phi, r, err := s.g.MinPeriod(wd, s.bounds)
		if err != nil {
			return err
		}
		s.phi, s.r = phi, r
	case MinAreaAtPeriod:
		r, ok := s.g.Feasible(s.opts.TargetPeriod, wd, s.bounds)
		if !ok {
			return fmt.Errorf("core: target period %d infeasible: %w", s.opts.TargetPeriod, rterr.ErrInfeasiblePeriod)
		}
		s.phi, s.r = s.opts.TargetPeriod, r
	default:
		return fmt.Errorf("core: unknown objective %d", s.opts.Objective)
	}
	return nil
}

// runMinAreaDense is step 5 on the dense reference, degrading to the
// feasible minperiod retiming on an infeasible flow exactly as runMinArea
// does.
func runMinAreaDense(pc *pass.Context[flowState]) error {
	s := pc.State
	if s.opts.Objective == MinPeriod {
		return nil
	}
	wd, err := s.g.ComputeWD(pc.Ctx())
	if err != nil {
		return err
	}
	r, err := retime.MinAreaDense(s.g, wd, s.phi, s.bounds)
	if err != nil {
		if pc.Err() != nil {
			return err
		}
		if errors.Is(err, mcf.ErrInfeasible) {
			s.rep.Degraded = append(s.rep.Degraded,
				fmt.Sprintf("minarea at period %d: %v; keeping the feasible minperiod retiming", s.phi, err))
			pc.Sink.Add("minarea-degraded", 1)
			return nil
		}
		return err
	}
	s.r = r
	return nil
}

// oracleText runs retimeOracle and returns the output circuit's canonical
// text with its report.
func oracleText(t *testing.T, c *netlist.Circuit, opts Options, o oracle) (string, *Report) {
	t.Helper()
	out, rep, err := retimeOracle(c, opts, o)
	if err != nil {
		t.Fatalf("%v oracle: %v", o, err)
	}
	return circuitText(t, out), rep
}
