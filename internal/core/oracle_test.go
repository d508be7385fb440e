package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mcretiming/internal/graph"
	"mcretiming/internal/hdlio"
	"mcretiming/internal/mcf"
	"mcretiming/internal/netlist"
	"mcretiming/internal/oracle"
	"mcretiming/internal/rterr"
	"mcretiming/internal/trace"
)

// The flow has one production solve core (runMinPeriod/runMinArea: the
// warm-started lazy search and the cutting-plane minarea loop). The oracles
// below swap that core for reference solvers — the cold-probe lazy search
// and the dense engines of internal/oracle — and reuse every other step of
// the flow verbatim, so any divergence they find localizes to the
// period/area solvers.

// denseCrossCheckMaxV caps the graph size at which this test binary's
// minPeriodCrossCheck re-derives the minimum period with the dense W/D
// oracle: past it, the O(V²) matrices would dominate the test run.
const denseCrossCheckMaxV = 400

// denseCrossChecks counts the dense minimum-period cross-checks run so far.
var denseCrossChecks atomic.Int64

// denseMinPeriodCheck is the minPeriodCrossCheck this test binary installs
// (see degrade_test.go's init): on graphs of at most denseCrossCheckMaxV
// vertices it requires the production minimum period to equal the dense
// oracle's.
func denseMinPeriodCheck(ctx context.Context, g *graph.Graph, b *graph.Bounds, phi int64) error {
	if g.NumVertices() > denseCrossCheckMaxV {
		return nil
	}
	denseCrossChecks.Add(1)
	wd, err := oracle.ComputeWD(ctx, g)
	if err != nil {
		return err
	}
	densePhi, _, err := oracle.MinPeriod(g, wd, b)
	if err != nil {
		return err
	}
	if densePhi != phi {
		return fmt.Errorf("sparse min period %d disagrees with dense reference %d: %w", phi, densePhi, rterr.ErrInvariant)
	}
	return nil
}

// circuitText serializes a circuit for bit-identical comparison.
func circuitText(t *testing.T, c *netlist.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := hdlio.Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// refCore names a reference solve core.
type refCore int

const (
	// oracleCold is the lazy search with probe warm-starting off: every
	// binary-search probe re-seeds and re-solves the full difference system.
	oracleCold refCore = iota
	// oracleDense is the W/D formulation: candidate binary search and full
	// period-constraint enumeration for minperiod, the dense min-cost-flow
	// program for minarea.
	oracleDense
)

func (o refCore) String() string {
	if o == oracleDense {
		return "dense"
	}
	return "cold"
}

// retimeOracle is Retime with the solve core of steps 4-5 replaced by the
// reference path o. Steps 1-3, relocation, the §5.2 retry loop and the
// invariant checker are the production code.
func retimeOracle(c *netlist.Circuit, opts Options, o refCore) (*netlist.Circuit, *Report, error) {
	ctx := traced(context.Background(), opts.Trace)
	s := &flowState{in: c, opts: opts, rep: &Report{}, pool: &graph.CutPool{}}
	if err := s.prepare(ctx); err != nil {
		return nil, nil, err
	}
	minPeriod, minArea := runMinPeriod, runMinArea
	switch o {
	case oracleCold:
		s.lad = nil
	case oracleDense:
		minPeriod, minArea = runMinPeriodDense, runMinAreaDense
	}
	if err := s.solve(ctx, minPeriod, minArea); err != nil {
		return nil, nil, err
	}
	return s.out, s.rep, nil
}

// runMinPeriodDense is step 4 on the dense reference: W/D of the solver
// graph, candidate binary search, full period-constraint enumeration.
func runMinPeriodDense(ctx context.Context, s *flowState) error {
	wd, err := oracle.ComputeWD(ctx, s.g)
	if err != nil {
		return err
	}
	switch s.opts.Objective {
	case MinPeriod, MinAreaAtMinPeriod:
		phi, r, err := oracle.MinPeriod(s.g, wd, s.bounds)
		if err != nil {
			return err
		}
		s.phi, s.r = phi, r
	case MinAreaAtPeriod:
		r, ok := oracle.Feasible(s.g, s.opts.TargetPeriod, wd, s.bounds)
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
func runMinAreaDense(ctx context.Context, s *flowState) error {
	if s.opts.Objective == MinPeriod {
		return nil
	}
	wd, err := oracle.ComputeWD(ctx, s.g)
	if err != nil {
		return err
	}
	r, err := oracle.MinAreaDense(s.g, wd, s.phi, s.bounds)
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		if errors.Is(err, mcf.ErrInfeasible) {
			s.rep.Degraded = append(s.rep.Degraded,
				fmt.Sprintf("minarea at period %d: %v; keeping the feasible minperiod retiming", s.phi, err))
			trace.From(ctx).Add("minarea-degraded", 1)
			return nil
		}
		return err
	}
	s.r = r
	return nil
}

// oracleText runs retimeOracle and returns the output circuit's canonical
// text with its report.
func oracleText(t *testing.T, c *netlist.Circuit, opts Options, o refCore) (string, *Report) {
	t.Helper()
	out, rep, err := retimeOracle(c, opts, o)
	if err != nil {
		t.Fatalf("%v oracle: %v", o, err)
	}
	return circuitText(t, out), rep
}
