// Package mcretiming is a from-scratch implementation of multiple-class
// retiming (Eckl, Madre, Zepter, Legl: "A Practical Approach to
// Multiple-Class Retiming", DAC 1999): minimum-period and minimum-area
// retiming for synchronous circuits whose registers carry synchronous load
// enables and synchronous/asynchronous set/clear inputs.
//
// Registers are classified by the signals on their control pins; a layer of
// registers moves across a gate only when all its registers are compatible
// (same class). Per-vertex retiming bounds derived by maximal backward and
// forward retiming reduce the problem to basic (Leiserson–Saxe) retiming,
// solved here by one path: a minperiod binary search over lazily generated
// period constraints, its probes warm-started from the previous feasible
// probe, then a min-cost-flow minarea engine. No O(V²) W/D matrix is built
// (the dense formulation is kept as a test oracle). Equivalent reset states
// are computed move-by-move with BDD justification.
//
// The package is a façade over the internal packages:
//
//	netlist   circuit model with generic registers
//	mcgraph   the multiple-class retiming graph (classes, bounds, sharing)
//	graph     basic retiming graph, feasibility, minperiod
//	retime    minimum-area retiming (min-cost-flow dual)
//	justify   BDD reset-state justification (local + global)
//	core      the six-step mc-retiming flow
//	explore   design-space sweep: the period↔register-area Pareto front
//	store     content-addressed on-disk result store backing the sweep
//	xc4000    4-LUT FPGA mapper, delay model, decomposition baselines
//	sim       three-valued cycle simulator
//	verify    sequential equivalence by random simulation
//	hdlio     textual netlist reader/writer
//	gen       synthetic benchmark suite (the paper's C1–C10 stand-ins)
//	bench     the paper's Tables 1–3 and Fig. 1 experiment pipelines
//
// Quick start:
//
//	c := mcretiming.NewCircuit("dff")
//	d := c.AddInput("d")
//	clk := c.AddInput("clk")
//	_, q := c.AddReg("r", d, clk)
//	c.MarkOutput(q)
//	out, rep, err := mcretiming.Retime(c, mcretiming.Options{})
package mcretiming

import (
	"context"
	"io"

	"mcretiming/internal/blif"
	"mcretiming/internal/bmc"
	"mcretiming/internal/core"
	"mcretiming/internal/explore"
	"mcretiming/internal/hdlio"
	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/opt"
	"mcretiming/internal/rterr"
	"mcretiming/internal/store"
	"mcretiming/internal/trace"
	"mcretiming/internal/verify"
	"mcretiming/internal/verilog"
	"mcretiming/internal/xc4000"
)

// Circuit is a gate-level netlist with generic registers (D, Q, clock,
// optional EN / synchronous / asynchronous set-clear pins).
type Circuit = netlist.Circuit

// NewCircuit returns an empty circuit.
func NewCircuit(name string) *Circuit { return netlist.New(name) }

// Re-exported netlist types and identifiers.
type (
	// SignalID names a wire within a Circuit.
	SignalID = netlist.SignalID
	// GateID names a gate within a Circuit.
	GateID = netlist.GateID
	// RegID names a register within a Circuit.
	RegID = netlist.RegID
	// Gate is a combinational gate instance.
	Gate = netlist.Gate
	// Reg is a generic register instance.
	Reg = netlist.Reg
	// GateType enumerates combinational gate kinds.
	GateType = netlist.GateType
	// Bit is a ternary logic value (0, 1, X).
	Bit = logic.Bit
)

// Gate type constants.
const (
	Buf    = netlist.Buf
	Not    = netlist.Not
	And    = netlist.And
	Or     = netlist.Or
	Nand   = netlist.Nand
	Nor    = netlist.Nor
	Xor    = netlist.Xor
	Xnor   = netlist.Xnor
	Mux    = netlist.Mux
	Lut    = netlist.Lut
	Carry  = netlist.Carry
	Const0 = netlist.Const0
	Const1 = netlist.Const1
)

// Logic values.
const (
	B0 = logic.B0
	B1 = logic.B1
	BX = logic.BX
)

// NoSignal marks an unconnected optional register pin.
const NoSignal = netlist.NoSignal

// Options configures Retime.
type Options = core.Options

// Budgets caps solver resources (Options.Budgets). A blown budget degrades —
// BDD justification escalates to SAT, minarea falls back to the feasible
// minperiod retiming (noted in Report.Degraded) — it never crashes the flow.
type Budgets = core.Budgets

// Report summarizes a retiming run.
type Report = core.Report

// Objective selects the optimization goal.
type Objective = core.Objective

// Objectives.
const (
	// MinPeriod minimizes the clock period.
	MinPeriod = core.MinPeriod
	// MinAreaAtMinPeriod minimizes registers at the minimum feasible period
	// (the paper's "minimal area for best delay").
	MinAreaAtMinPeriod = core.MinAreaAtMinPeriod
	// MinAreaAtPeriod minimizes registers at Options.TargetPeriod.
	MinAreaAtPeriod = core.MinAreaAtPeriod
)

// PassTime is one pipeline pass's wall-clock time within a Report.
type PassTime = core.PassTime

// Error taxonomy: every error escaping a public entry point wraps exactly one
// of these sentinels, so callers classify failures with errors.Is instead of
// string matching.
var (
	// ErrInfeasiblePeriod: no retiming meets the requested clock period.
	ErrInfeasiblePeriod = rterr.ErrInfeasiblePeriod
	// ErrBudgetExceeded: a solver resource budget was exhausted and no
	// degradation path could absorb it.
	ErrBudgetExceeded = rterr.ErrBudgetExceeded
	// ErrJustifyConflict: equivalent reset states do not exist for the chosen
	// register moves, even after the §5.2 re-retiming retries.
	ErrJustifyConflict = rterr.ErrJustifyConflict
	// ErrMalformedInput: the input circuit or file is not well-formed.
	ErrMalformedInput = rterr.ErrMalformedInput
	// ErrInvariant: an internal consistency check failed after a pass.
	ErrInvariant = rterr.ErrInvariant
	// ErrInternal: a programming error, including a recovered pass crash.
	ErrInternal = rterr.ErrInternal
)

// Retime applies multiple-class retiming to c and returns the retimed
// circuit and a report. c is not modified.
func Retime(c *Circuit, opts Options) (*Circuit, *Report, error) {
	return core.Retime(c, opts)
}

// RetimeCtx is Retime with cooperative cancellation: ctx is polled between
// pipeline passes and inside every long-running solver loop (cutting-plane
// rounds, min-cost-flow augmentations, SAT/BDD justification), and its error
// is returned when it fires. Attach a TraceSink via Options.Trace for
// per-pass spans and solver counters.
func RetimeCtx(ctx context.Context, c *Circuit, opts Options) (*Circuit, *Report, error) {
	return core.RetimeCtx(ctx, c, opts)
}

// Prepared is a circuit with the model half of the retiming flow (mc-graph,
// class bounds, sharing) done: ready to solve at any number of target periods
// concurrently, and to absorb gate-delay ECOs via Apply without a cold
// re-prepare.
type Prepared = core.Prepared

// Edit is a netlist ECO a Prepared can absorb incrementally: a new
// propagation delay for one named gate. See Prepared.Apply.
type Edit = core.Edit

// Prepare runs the model half of the retiming flow on c and returns the
// reusable state: Anchor solves MinAreaAtMinPeriod (bit-identical to Retime),
// SolveAtPeriod solves at any feasible target, Candidates streams the
// candidate periods, and Apply ECO-updates the state for a gate-delay edit at
// a fraction of the cost of a cold Prepare.
func Prepare(ctx context.Context, c *Circuit, opts Options) (*Prepared, error) {
	return core.Prepare(ctx, c, opts)
}

// ExploreOptions configures Explore: the core option set per solve, the
// sweep-level parallelism, an optional point cap, an optional persistent
// result store, and trace/progress hooks.
type ExploreOptions = explore.Options

// Front is the Pareto front of feasible clock period vs. register count
// computed by Explore: the stable mcretiming-front/v1 output.
type Front = explore.Front

// ParetoPoint is one point of a Front.
type ParetoPoint = explore.Point

// Explore sweeps the candidate clock periods of c (the distinct D-matrix
// entries) and returns the Pareto front of feasible period vs. register
// count. The minimum-period endpoint is bit-identical to the single-point
// Retime(MinAreaAtMinPeriod) result, and the front is deterministic at any
// parallelism. With ExploreOptions.Store set, solved points persist across
// runs and processes.
func Explore(ctx context.Context, c *Circuit, o ExploreOptions) (*Front, error) {
	return explore.Sweep(ctx, c, o)
}

// ResultStore is a content-addressed on-disk store for solved results; see
// internal/store for the corruption-tolerance guarantees. A nil *ResultStore
// is a valid always-miss store.
type ResultStore = store.Store

// StoreStats is a snapshot of a ResultStore's hit/miss/corruption counters.
type StoreStats = store.Stats

// OpenStore opens (creating if needed) a result store rooted at dir.
func OpenStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// TraceSink receives hierarchical spans and counters from an instrumented
// run. Pass a *TraceRecorder (or any custom implementation) in
// Options.Trace / FlowOptions.Trace.
type TraceSink = trace.Sink

// TraceRecorder is the in-memory TraceSink: it builds a span tree that can
// be rendered as an indented text report (WriteText) or as Chrome trace-event
// JSON (WriteChromeTrace, load in chrome://tracing or Perfetto).
type TraceRecorder = trace.Recorder

// TraceSpan is one completed (or still-open) span in a TraceRecorder.
type TraceSpan = trace.Span

// NewTraceRecorder returns an empty recorder ready to use as a TraceSink.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NopTraceSink returns a sink that discards everything — the default when
// no trace is requested.
func NopTraceSink() TraceSink { return trace.Nop() }

// ReadNetlist parses the textual netlist format.
func ReadNetlist(r io.Reader) (*Circuit, error) { return hdlio.Read(r) }

// WriteNetlist serializes c in the textual netlist format.
func WriteNetlist(w io.Writer, c *Circuit) error { return hdlio.Write(w, c) }

// ReadBLIF parses a Berkeley Logic Interchange Format model (generic
// register controls round-trip through the "# .mcreg" comment extension).
func ReadBLIF(r io.Reader) (*Circuit, error) { return blif.Read(r) }

// WriteBLIF serializes c as BLIF.
func WriteBLIF(w io.Writer, c *Circuit) error { return blif.Write(w, c) }

// WriteVerilog emits c as a synthesizable structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// CleanResult reports what Clean removed.
type CleanResult = opt.Result

// Clean runs constant folding, buffer sweeping and dead-logic removal to a
// fixpoint, returning a fresh circuit.
func Clean(c *Circuit) (*Circuit, *CleanResult, error) { return opt.Clean(c) }

// Strash merges structurally identical gates (structural hashing) and
// returns the fresh circuit with the number of gates merged.
func Strash(c *Circuit) (*Circuit, int, error) { return opt.Strash(c) }

// CLBEstimate approximates XC4000E configurable-logic-block usage.
type CLBEstimate = xc4000.CLBEstimate

// EstimateCLBs computes CLB packing for a mapped circuit.
func EstimateCLBs(c *Circuit) CLBEstimate { return xc4000.EstimateCLBs(c) }

// MapXC4000 technology-maps c into 4-input LUTs with the XC4000E-flavoured
// delay model. It also serves as the post-retiming "remap".
func MapXC4000(c *Circuit) (*Circuit, error) { return xc4000.Map(c) }

// DecomposeEnables rewrites load enables into feedback multiplexers (the
// conventional-flow baseline). c is modified in place and returned.
func DecomposeEnables(c *Circuit) *Circuit { return xc4000.DecomposeEnables(c) }

// DecomposeSyncResets rewrites synchronous set/clear pins into logic (the
// XC4000E has none). c is modified in place and returned.
func DecomposeSyncResets(c *Circuit) *Circuit { return xc4000.DecomposeSyncResets(c) }

// FPGAStats is a mapped circuit's area/timing summary.
type FPGAStats = xc4000.Stats

// ReportFPGA computes area and timing statistics for a circuit.
func ReportFPGA(c *Circuit) (FPGAStats, error) { return xc4000.Report(c) }

// Stimulus configures Equivalent.
type Stimulus = verify.Stimulus

// EquivalenceResult summarizes an equivalence run.
type EquivalenceResult = verify.Result

// Equivalent checks sequential equivalence of two circuits by three-valued
// random simulation (see internal/verify for the exact guarantee).
func Equivalent(a, b *Circuit, st Stimulus) (*EquivalenceResult, error) {
	return verify.Equivalent(a, b, st)
}

// BMCOptions configures ProveEquivalent.
type BMCOptions = bmc.Options

// BMCResult reports a bounded equivalence check.
type BMCResult = bmc.Result

// ProveEquivalent unrolls both circuits Depth cycles into one SAT instance
// and decides — exhaustively over all input sequences — whether a
// known-vs-known output mismatch is reachable. Equivalent=true is a proof
// up to the depth, not a sample.
func ProveEquivalent(a, b *Circuit, opts BMCOptions) (*BMCResult, error) {
	return bmc.Check(a, b, opts)
}

// ProveEquivalentCtx is ProveEquivalent with cooperative cancellation: ctx
// is polled once per unrolled cycle and throughout the SAT search.
func ProveEquivalentCtx(ctx context.Context, a, b *Circuit, opts BMCOptions) (*BMCResult, error) {
	return bmc.CheckCtx(ctx, a, b, opts)
}

// Verdict is the outcome of ProveEquivalentUnbounded.
type Verdict = bmc.Verdict

// Verdicts.
const (
	Proven         = bmc.Proven
	Counterexample = bmc.Counterexample
	Unknown        = bmc.Unknown
)

// ProveResult reports an unbounded equivalence attempt.
type ProveResult = bmc.ProveResult

// ProveEquivalentUnbounded attempts k-induction: a bounded base case plus
// an inductive step over arbitrary states. Verdict Proven holds for all
// time; Unknown means only that this induction depth was insufficient.
func ProveEquivalentUnbounded(a, b *Circuit, opts BMCOptions) (*ProveResult, error) {
	return bmc.Prove(a, b, opts)
}

// ProveEquivalentUnboundedCtx is ProveEquivalentUnbounded with cooperative
// cancellation across both the base case and the inductive step.
func ProveEquivalentUnboundedCtx(ctx context.Context, a, b *Circuit, opts BMCOptions) (*ProveResult, error) {
	return bmc.ProveCtx(ctx, a, b, opts)
}
