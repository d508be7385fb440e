// Package core orchestrates multiple-class retiming end to end — the
// six-step flow of paper §5:
//
//  1. build the mc-graph from the circuit,
//  2. derive the retiming bounds by maximal backward/forward retiming,
//  3. modify the graph for multiple-class register sharing,
//  4. compute the minimum feasible clock period under the bounds,
//  5. compute a minimum-area retiming at that period,
//  6. relocate the registers, computing equivalent reset states on the way.
//
// If implementing the solution hits an unresolvable reset-state conflict,
// the offending vertex's backward bound is tightened to what was achieved
// and a new retiming is computed (§5.2) — the paper never needed this on its
// benchmark set, and neither do ours, but the loop is there.
//
// Each step runs as an individually named, individually timed pass, the §5.2
// loop is a plain loop around the last three, cancellation arrives through a
// context.Context, and structured spans/counters flow into an internal/trace
// Sink (see pipeline.go).
package core

import (
	"context"
	"fmt"
	"time"

	"mcretiming/internal/mcgraph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/trace"
)

// Objective selects what Retime optimizes.
type Objective int

// Objectives. MinAreaAtMinPeriod is the paper's "minimal area for best
// delay" used throughout its results.
const (
	MinPeriod Objective = iota
	MinAreaAtMinPeriod
	MinAreaAtPeriod
)

// DefaultMaxRetries bounds the §5.2 re-retiming loop when Options.MaxRetries
// is zero. The paper reports its benchmark set never needed a single retry;
// a handful is plenty because every relocation pass harvests all of its
// conflicts at once.
const DefaultMaxRetries = 8

// Options configures Retime. The zero value asks for minimum area at the
// minimum feasible period with all paper mechanisms enabled.
//
// Steps 4-5 have a single solve core: the matrix-free minperiod search over
// lazily generated period cuts, its probes warm-started through one
// graph.ProbeLadder per solve session, then the cutting-plane minarea loop.
// The dense W/D formulation (internal/oracle) and the cold-probe search are
// reference code for the equivalence tests only; no binary runs them.
//
// Global justification uses BDDs, the paper's engine. A BDD that exceeds
// Budgets.BDDNodes escalates to the SAT backend; there is no switch to run
// SAT first.
type Options struct {
	Objective    Objective
	TargetPeriod int64 // picoseconds; used by MinAreaAtPeriod

	// DisableSharing skips step 3 (the §4.2 separation vertices): the
	// ablation baseline whose area cost function can undercount.
	DisableSharing bool
	// DisableJustify skips reset-state computation: created registers keep
	// undefined reset values. Only sound for circuits whose registers have
	// no set/clear controls; exposed for tests and ablation benches.
	DisableJustify bool
	// ForwardOnly forbids backward moves (r(v) > 0): no backward
	// justification can ever be needed, at the price of optimization
	// freedom. The paper notes backward steps carry all the reset-state
	// cost; this is the conservative mode that avoids them entirely.
	ForwardOnly bool
	// MaxRetries bounds the re-retiming loop on justification conflicts.
	// 0 means the default (DefaultMaxRetries, i.e. 8).
	MaxRetries int

	// CheckInvariants runs the internal/check invariant checker after every
	// pass of the flow: graph well-formedness, nonnegative retimed weights,
	// class compatibility of shared register layers (Eq. 2), zero-delay
	// separation vertices, and the claimed period. A violation aborts the
	// flow with an error wrapping rterr.ErrInvariant. Production callers opt
	// in. The package's own test binary forces this on and, on graphs of at
	// most 400 vertices, also cross-checks every minimum period against the
	// dense W/D oracle.
	CheckInvariants bool

	// Budgets bounds the flow's solvers; exhaustion degrades the result
	// (see Budgets) instead of failing the run or working without bound.
	Budgets Budgets

	// Trace receives the structured spans and counters of the run: one span
	// per pass of the flow (nested under the §5.2 loop's span for steps 4-6)
	// and counters for classes, bounds tightened, cuts generated,
	// justification local/global/conflict counts and flow augmentations.
	// nil means no tracing.
	Trace trace.Sink
}

// Budgets bounds the work of the flow's solvers. A zero field means the
// solver package's default; a negative one means unlimited.
//
// Exhaustion degrades rather than fails where a sound fallback exists:
// a blown BDD node budget escalates that global justification to SAT; a
// blown SAT conflict budget counts as an unresolved conflict, which sends
// the flow down the paper's §5.2 add-bound-and-re-solve path; a blown
// min-cost-flow or round budget in minarea keeps the feasible minperiod
// retiming and records the downgrade in Report.Degraded. No exhaustion
// escapes the flow as rterr.ErrBudgetExceeded (only an armed failpoint
// injects that error), so a caller never needs to retry a run with larger
// budgets; the retiming service runs each job once.
type Budgets struct {
	BDDNodes          int // nodes per global-justification BDD (justify.DefaultBDDNodes)
	SATConflicts      int // conflicts per SAT solve (justify.DefaultSATConflicts)
	FlowAugmentations int // augmentations per min-cost-flow solve (retime.DefaultFlowAugmentations)
	MinAreaRounds     int // cutting-plane rounds per minarea solve (retime.DefaultMaxRounds)
}

// FingerprintVersion tags Options.Fingerprint, and with it every key of the
// content-addressed result store: the sweep's points and single-point retime
// results. Bump it whenever the flow's output for the same input and options
// changes (TestGoldenSumsNeedVersionBump fails until you do), so stored
// results from older binaries read as misses instead of being served. v2
// added the engine token when the sparse solve core became primary. The
// "explore-fp" prefix is historical: the text is part of every existing key.
const FingerprintVersion = "explore-fp/v2"

// Fingerprint renders the options that determine a solved result, other
// than Objective and TargetPeriod (a sweep sets those per point, so callers
// key them separately), as the canonical text the result store hashes into
// its keys. Trace does not change a result and is left out, and so is
// CheckInvariants: a passing check changes nothing.
func (o Options) Fingerprint() string {
	// "engine=sparse" names the only solve core and "sat=false" the only
	// justification order (BDD first, SAT on escalation). Both stay in the
	// text because v2 stores hold entries keyed with them, and those are
	// still exactly right.
	return fmt.Sprintf("%s engine=sparse sharing=%t justify=%t sat=false fwd=%t retries=%d budgets=%d/%d/%d/%d",
		FingerprintVersion,
		!o.DisableSharing, !o.DisableJustify, o.ForwardOnly, o.MaxRetries,
		o.Budgets.BDDNodes, o.Budgets.SATConflicts, o.Budgets.FlowAugmentations, o.Budgets.MinAreaRounds)
}

// checkInvariantsDefault force-enables the invariant checker regardless of
// Options; the package's own test binary turns it on so every test run is
// checked.
var checkInvariantsDefault bool

// checksEnabled reports whether the post-pass invariant checker should run.
func (o Options) checksEnabled() bool { return o.CheckInvariants || checkInvariantsDefault }

// effectiveMaxRetries resolves the §5.2 retry budget of o.
func effectiveMaxRetries(o Options) int {
	if o.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return o.MaxRetries
}

// PassTime is one pass's accumulated wall time (summed over §5.2 retries
// for the passes inside the re-retiming loop).
type PassTime struct {
	Name string
	Wall time.Duration
}

// Report describes one retiming run, mirroring the paper's Table 2 columns
// plus the §6 timing breakdown.
type Report struct {
	NumClasses    int
	ClassTable    []mcgraph.ClassInfo // per-class control tuples + populations
	StepsMoved    int64               // Σ|r(v)|: first number of column #Step
	StepsPossible int64               // second number of column #Step

	PeriodBefore, PeriodAfter int64 // graph clock period, ps
	RegsBefore, RegsAfter     int

	BackwardSteps, ForwardSteps int
	// JustifyLocal, JustifyGlobal and JustifyConflicts count the final
	// attempt's justifications; Attempts has every attempt's.
	JustifyLocal, JustifyGlobal, JustifyConflicts int
	Retries                                       int
	// Attempts records each pass of steps 4-6 that reached relocation, in
	// order: Retries+1 entries on success, the last being the attempt the
	// result comes from.
	Attempts []Attempt
	// JustifyEscalations counts global justifications whose BDD blew its
	// node budget and were re-solved with the SAT backend.
	JustifyEscalations int

	// Degraded records every point where a solver budget forced the flow
	// onto a fallback path (e.g. minarea kept the feasible minperiod
	// retiming). Empty means the full-quality result.
	Degraded []string

	// PassTimes is the per-pass wall-time breakdown, in flow order. The
	// three coarse aggregates below are sums over it and are kept for
	// Table 2 compatibility.
	PassTimes []PassTime

	TimeModel  time.Duration // steps 1-3: mc-graph, classes, bounds, sharing
	TimeSolve  time.Duration // steps 4-5: minperiod + minarea
	TimeVerify time.Duration // step 6: relocation + reset states
}

// Attempt is one pass of steps 4-6 through the §5.2 re-retiming loop: the
// period its retiming reached and what its relocation's justification did.
type Attempt struct {
	PeriodAfter                                   int64 // ps
	JustifyLocal, JustifyGlobal, JustifyConflicts int
}

// Retime applies multiple-class retiming to c and returns the retimed
// circuit with a report. c itself is never modified.
func Retime(c *netlist.Circuit, opts Options) (*netlist.Circuit, *Report, error) {
	return RetimeCtx(context.Background(), c, opts)
}
