// Package explore computes the Pareto front of feasible clock period vs.
// shared-register area for a circuit — the design-space view of the paper's
// two point engines (minperiod, minarea-at-period).
//
// The sweep exploits three structural facts:
//
//   - the feasible front can only step at the distinct entries of the D
//     matrix (every critical path's delay is a D entry), so those are the
//     only periods worth probing;
//   - the model half of the flow (mc-graph, bounds, sharing, solver graph)
//     and the period cuts are period-independent, so core.Prepare runs the
//     model half once and every per-period solve starts from it, with its
//     cut pool seeded from the anchor solve's cuts;
//   - per-period solves are independent given isolated mutable state, so
//     they run as a batch over the internal/par worker pool, with
//     deterministic output at any parallelism.
//
// Solved points persist in an optional content-addressed store
// (internal/store), keyed by circuit bytes + option fingerprint + period, so
// repeated sweeps, server restarts, and CI runs load instead of re-solving.
// The store can only ever produce a miss, never a wrong answer (see the
// store package); a corrupted entry silently degrades to a fresh solve.
package explore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcretiming/internal/blif"
	"mcretiming/internal/core"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/par"
	"mcretiming/internal/store"
	"mcretiming/internal/trace"
)

// fingerprintVersion tags the option fingerprint entering every store key.
// Bump it when solver semantics change enough that stored solutions from
// older binaries must not be served. v2 added the engine token when the
// sparse solve core became primary: its candidate list prunes below the
// largest vertex delay, so v1 entries, all dense-produced, are orphaned
// wholesale rather than served against a sparse fingerprint.
const fingerprintVersion = "explore-fp/v2"

// Options configures a sweep.
type Options struct {
	// Core is the option set every per-period solve inherits. Objective and
	// TargetPeriod are overridden by the sweep; budgets and flags apply as
	// given.
	Core core.Options

	// Parallelism is the sweep-level worker count: how many periods solve
	// concurrently. 0 means GOMAXPROCS. The front is identical at every
	// setting.
	Parallelism int

	// MaxPoints caps the number of solved points (minimum-period anchor
	// included). 0 means all candidate periods. When capping, candidates are
	// subsampled evenly across the range, always keeping both endpoints.
	MaxPoints int

	// Store persists solved points; nil disables persistence.
	Store *store.Store

	// Trace receives the sweep's counters: per-point solver counters merged
	// deterministically (sorted by name, points in period order) plus the
	// sweep's own explore-* counters. nil means no tracing.
	Trace trace.Sink

	// Progress, when set, is called after each point completes (solved or
	// loaded), with the number done and the total. Calls are serialized.
	Progress func(done, total int)

	// Remote, when set, is offered each point the store missed before the
	// local solve: typically a cluster dispatch that runs the point on a
	// worker. key is the point's store key (so the cluster can route the
	// point to the node most likely to hold it warm). Any error — no worker,
	// partition, worker crash — falls back to solving locally; the engine is
	// deterministic, so either path yields byte-identical output.
	Remote func(ctx context.Context, key string, phi int64) (*Solution, error)
}

// Solution is the persisted/wire payload of one solved point: what the store
// holds under a point key, and what a cluster worker returns for an
// explore-point run. The anchor entry additionally carries the minimum
// feasible period it discovered, which warm runs use to filter candidates
// without re-solving.
type Solution struct {
	PeriodPS    int64       `json:"period_ps"`
	MinPeriodPS int64       `json:"min_period_ps,omitempty"`
	Regs        int         `json:"regs"`
	RegsByClass []ClassRegs `json:"regs_by_class"`
	StepsMoved  int64       `json:"steps_moved"`
	Retries     int         `json:"retries"`
	Degraded    bool        `json:"degraded"`
	BLIF        string      `json:"blif"`
}

// storedCandidates is the store payload of the candidate-period list, so a
// warm sweep skips the per-source candidate-period pass entirely.
type storedCandidates struct {
	BaselinePeriodPS int64   `json:"baseline_period_ps"`
	Candidates       []int64 `json:"candidates"`
}

// keys derives the store keys of a sweep: one per discriminator, all bound
// to the exact circuit bytes and the option fingerprint.
type keys struct {
	ckt []byte // BLIF rendering of the input circuit
	fp  []byte
}

func newKeys(c *netlist.Circuit, o core.Options) (*keys, error) {
	var buf bytes.Buffer
	if err := blif.Write(&buf, c); err != nil {
		return nil, fmt.Errorf("explore: serialize circuit: %w", err)
	}
	// "engine=sparse" names the only solve core. It stays in the text because
	// v2 stores hold entries keyed with it, and those are still exactly right.
	fp := fmt.Sprintf("%s engine=sparse sharing=%t justify=%t sat=%t fwd=%t retries=%d budgets=%d/%d/%d/%d",
		fingerprintVersion,
		!o.DisableSharing, !o.DisableJustify, o.SATJustify, o.ForwardOnly, o.MaxRetries,
		o.Budgets.BDDNodes, o.Budgets.SATConflicts, o.Budgets.FlowAugmentations, o.Budgets.MinAreaRounds)
	return &keys{ckt: buf.Bytes(), fp: []byte(fp)}, nil
}

func (k *keys) anchor() string     { return store.Key(k.ckt, k.fp, []byte("anchor")) }
func (k *keys) candidates() string { return store.Key(k.ckt, k.fp, []byte("candidates")) }
func (k *keys) point(phi int64) string {
	return store.Key(k.ckt, k.fp, []byte(fmt.Sprintf("period:%d", phi)))
}

// Sweep computes the Pareto front of c under o. The returned front is
// deterministic: the same circuit and core options produce byte-identical
// WriteJSON output at any Parallelism, with or without a store.
func Sweep(ctx context.Context, c *netlist.Circuit, o Options) (*Front, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	var hits, misses, saveErrors, remotes atomic.Int64
	save := func(key string, v any) {
		if err := o.Store.Save(ctx, key, v); err != nil {
			saveErrors.Add(1)
		}
	}

	k, err := newKeys(c, o.Core)
	if err != nil {
		return nil, err
	}

	// Model half: steps 1-3, once. Runs even on a fully warm sweep — it is
	// cheap next to the solves — because the baseline
	// report and any lazily-needed live solve hang off it.
	prep, err := core.Prepare(ctx, c, o.Core)
	if err != nil {
		return nil, err
	}

	// Candidate periods: distinct D entries, from the store or streamed from
	// the solver graph.
	var cands []int64
	baseline := prep.BaselinePeriod()
	var sc storedCandidates
	if o.Store.Load(ctx, k.candidates(), &sc) && sc.BaselinePeriodPS == baseline {
		hits.Add(1)
		cands = sc.Candidates
	} else {
		if o.Store != nil {
			misses.Add(1)
		}
		if cands, err = prep.Candidates(ctx); err != nil {
			return nil, err
		}
		save(k.candidates(), storedCandidates{BaselinePeriodPS: baseline, Candidates: cands})
	}

	// Anchor: the minimum-period endpoint, bit-identical to the single-point
	// Retime(MinAreaAtMinPeriod) result (see core.Prepared.Anchor).
	var anchorPt Point
	var minPhi int64
	var ss Solution
	if o.Store.Load(ctx, k.anchor(), &ss) {
		hits.Add(1)
		anchorPt = pointFromStored(ss)
		minPhi = ss.MinPeriodPS
	} else {
		if o.Store != nil {
			misses.Add(1)
		}
		out, rep, err := prep.Anchor(ctx, o.Trace)
		if err != nil {
			return nil, err
		}
		if anchorPt, err = newPoint(out, rep); err != nil {
			return nil, err
		}
		minPhi = rep.PeriodAfter
		stored := solutionFromPoint(anchorPt)
		stored.MinPeriodPS = minPhi
		save(k.anchor(), stored)
	}

	phis := selectPeriods(cands, minPhi, o.MaxPoints)
	total := len(phis) + 1

	var progressMu sync.Mutex
	done := 0
	report := func() {
		if o.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		o.Progress(done, total)
		progressMu.Unlock()
	}
	report() // the anchor point

	// The batch: one isolated solve per period over the par pool. Slot j is
	// owned by point j; per-point trace recorders are merged in period order
	// afterwards, so counters are deterministic at any parallelism.
	//
	// Work is issued in descending period order: the shared probe ladder
	// (core.Prepared's single-slot pool) warm-starts a solve only when its
	// target period is at or below the last feasible checkpoint, so a serial
	// sweep that walks φ downward rides one ladder across all points. The
	// slot assignment — and therefore the output — is identical either way;
	// ordering is purely a warm-start affinity.
	points := make([]Point, len(phis))
	recs := make([]*trace.Recorder, len(phis))
	if o.Trace != nil {
		for i := range recs {
			recs[i] = trace.NewRecorder()
		}
	}
	err = par.Run(ctx, par.Workers(o.Parallelism), len(phis), func(_, i int) error {
		j := len(phis) - 1 - i
		phi := phis[j]
		var ss Solution
		if o.Store.Load(ctx, k.point(phi), &ss) && ss.PeriodPS == phi {
			hits.Add(1)
			points[j] = pointFromStored(ss)
			report()
			return nil
		}
		if o.Store != nil {
			misses.Add(1)
		}
		if o.Remote != nil {
			sol, err := o.Remote(ctx, k.point(phi), phi)
			if err == nil && sol != nil && sol.PeriodPS == phi {
				remotes.Add(1)
				points[j] = pointFromStored(*sol)
				save(k.point(phi), *sol)
				report()
				return nil
			}
			// Remote loss of any kind degrades to the local solve below.
		}
		var sink trace.Sink
		if recs[j] != nil {
			sink = recs[j]
		}
		out, rep, err := prep.SolveAtPeriod(ctx, phi, sink)
		if err != nil {
			return fmt.Errorf("explore: period %d: %w", phi, err)
		}
		pt, err := newPoint(out, rep)
		if err != nil {
			return err
		}
		points[j] = pt
		save(k.point(phi), solutionFromPoint(pt))
		report()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if o.Trace != nil {
		for _, rec := range recs {
			trace.MergeCounters(o.Trace, rec)
		}
		o.Trace.Add("explore-points", int64(total))
		o.Trace.Add("explore-store-hits", hits.Load())
		o.Trace.Add("explore-store-misses", misses.Load())
		o.Trace.Add("explore-store-save-errors", saveErrors.Load())
		o.Trace.Add("explore-remote-points", remotes.Load())
	}

	// Pareto prune: ascending period, keep a point only if it strictly
	// improves the register count. Dominated points stay in the store (a
	// future warm sweep still hits them); only the front drops them.
	front := &Front{
		Schema:           FrontSchema,
		Circuit:          c.Name,
		BaselinePeriodPS: baseline,
		BaselineRegs:     prep.RegsBefore(),
		MinPeriodPS:      minPhi,
		CandidatesSwept:  total,
		StoreHits:        int(hits.Load()),
		StoreMisses:      int(misses.Load()),
		SweptPeriods:     append([]int64{minPhi}, phis...),
	}
	bestRegs := anchorPt.Regs
	front.Points = append(front.Points, anchorPt)
	for _, pt := range points {
		if pt.Regs < bestRegs {
			bestRegs = pt.Regs
			front.Points = append(front.Points, pt)
		} else {
			front.Dominated++
		}
	}
	front.Wall = time.Since(start)
	return front, nil
}

// selectPeriods returns the candidate periods to solve beyond the anchor:
// everything strictly above the minimum feasible period (candidates below it
// are infeasible, and the anchor already covers minPhi itself), subsampled
// evenly when maxPoints caps the sweep. cands is ascending
// (Prepared.Candidates contract) and the result preserves that order.
func selectPeriods(cands []int64, minPhi int64, maxPoints int) []int64 {
	var phis []int64
	for _, phi := range cands {
		if phi > minPhi {
			phis = append(phis, phi)
		}
	}
	if maxPoints <= 0 || len(phis)+1 <= maxPoints {
		return phis
	}
	want := maxPoints - 1 // the anchor takes one slot
	if want <= 0 {
		return nil
	}
	out := make([]int64, 0, want)
	n := len(phis)
	for i := 0; i < want; i++ {
		// Evenly spaced indices, first and last always included.
		idx := i * (n - 1) / max(1, want-1)
		if len(out) == 0 || phis[idx] != out[len(out)-1] {
			out = append(out, phis[idx])
		}
	}
	return out
}

// newPoint builds a Point from a solved circuit and its report.
func newPoint(out *netlist.Circuit, rep *core.Report) (Point, error) {
	var buf bytes.Buffer
	if err := blif.Write(&buf, out); err != nil {
		return Point{}, fmt.Errorf("explore: serialize solution: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	m, err := mcgraph.Build(out)
	if err != nil {
		return Point{}, fmt.Errorf("explore: classes of solution: %w", err)
	}
	var byClass []ClassRegs
	for _, ci := range m.ClassSummary() {
		byClass = append(byClass, ClassRegs{Class: ci.Desc, Regs: ci.Registers})
	}
	return Point{
		PeriodPS:    rep.PeriodAfter,
		Regs:        out.NumRegs(),
		RegsByClass: byClass,
		StepsMoved:  rep.StepsMoved,
		Retries:     rep.Retries,
		Degraded:    len(rep.Degraded) > 0,
		BLIFSHA256:  hex.EncodeToString(sum[:]),
		BLIF:        buf.String(),
	}, nil
}

// pointFromStored rebuilds a Point from its store payload.
func pointFromStored(s Solution) Point {
	sum := sha256.Sum256([]byte(s.BLIF))
	return Point{
		PeriodPS:    s.PeriodPS,
		Regs:        s.Regs,
		RegsByClass: s.RegsByClass,
		StepsMoved:  s.StepsMoved,
		Retries:     s.Retries,
		Degraded:    s.Degraded,
		BLIFSHA256:  hex.EncodeToString(sum[:]),
		BLIF:        s.BLIF,
		FromStore:   true,
	}
}

// solutionFromPoint is the inverse of pointFromStored.
func solutionFromPoint(p Point) Solution {
	return Solution{
		PeriodPS:    p.PeriodPS,
		Regs:        p.Regs,
		RegsByClass: p.RegsByClass,
		StepsMoved:  p.StepsMoved,
		Retries:     p.Retries,
		Degraded:    p.Degraded,
		BLIF:        p.BLIF,
	}
}
