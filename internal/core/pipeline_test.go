package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"mcretiming/internal/failpoint"
	"mcretiming/internal/graph"
	"mcretiming/internal/mcgraph"
	"mcretiming/internal/rterr"
	"mcretiming/internal/trace"
)

func TestDefaultMaxRetriesIsEight(t *testing.T) {
	if DefaultMaxRetries != 8 {
		t.Fatalf("DefaultMaxRetries = %d, want 8 (the documented default)", DefaultMaxRetries)
	}
	if got := effectiveMaxRetries(Options{}); got != 8 {
		t.Errorf("effectiveMaxRetries(zero) = %d, want 8", got)
	}
	if got := effectiveMaxRetries(Options{MaxRetries: 3}); got != 3 {
		t.Errorf("effectiveMaxRetries(3) = %d, want 3", got)
	}
}

// The recorder's per-pass span totals must match the Report's coarse
// aggregates: both are derived from the same pass executions, so they may
// differ only by per-pass clock-read jitter.
func TestTraceSpansMatchReportAggregates(t *testing.T) {
	c := fig1Circuit(t)
	rec := trace.NewRecorder()
	_, rep, err := Retime(c, Options{Objective: MinAreaAtMinPeriod, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{PassBuild, PassBounds, PassShare, PassRetry,
		PassMinPeriod, PassMinArea, PassRelocate} {
		found := false
		for _, sp := range rec.Spans() {
			if sp.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no span named %q recorded", name)
		}
	}
	// Solver passes nest under the retry combinator.
	spans := rec.Spans()
	for i, sp := range spans {
		if sp.Name == PassMinPeriod {
			if sp.Parent < 0 || spans[sp.Parent].Name != PassRetry {
				t.Errorf("span %d (%s) parent = %d, want the %s span", i, sp.Name, sp.Parent, PassRetry)
			}
		}
	}

	// PassTimes sums exactly reproduce the aggregates (same measurements).
	var model, solve, verify time.Duration
	for _, pt := range rep.PassTimes {
		switch pt.Name {
		case PassBuild, PassBounds, PassShare:
			model += pt.Wall
		case PassMinPeriod, PassMinArea:
			solve += pt.Wall
		case PassRelocate:
			verify += pt.Wall
		}
	}
	if model != rep.TimeModel || solve != rep.TimeSolve || verify != rep.TimeVerify {
		t.Errorf("PassTimes sums %v/%v/%v != aggregates %v/%v/%v",
			model, solve, verify, rep.TimeModel, rep.TimeSolve, rep.TimeVerify)
	}

	// Recorder spans measure the same intervals on their own clock; allow
	// scheduling jitter per pass.
	const tol = 5 * time.Millisecond
	checks := []struct {
		name  string
		spans time.Duration
		rep   time.Duration
	}{
		{"model", rec.Total(PassBuild) + rec.Total(PassBounds) + rec.Total(PassShare), rep.TimeModel},
		{"solve", rec.Total(PassMinPeriod) + rec.Total(PassMinArea), rep.TimeSolve},
		{"verify", rec.Total(PassRelocate), rep.TimeVerify},
	}
	for _, ck := range checks {
		diff := ck.spans - ck.rep
		if diff < 0 {
			diff = -diff
		}
		if diff > tol {
			t.Errorf("%s: span total %v vs report %v (diff %v > %v)",
				ck.name, ck.spans, ck.rep, diff, tol)
		}
	}
}

func TestTracedRunEmitsChromeTrace(t *testing.T) {
	c := fig1Circuit(t)
	rec := trace.NewRecorder()
	if _, _, err := Retime(c, Options{Objective: MinAreaAtMinPeriod, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range events {
		if name, ok := ev["name"].(string); ok {
			names[name] = true
		}
	}
	for _, want := range []string{PassBuild, PassMinPeriod, PassRelocate} {
		if !names[want] {
			t.Errorf("chrome trace missing event %q", want)
		}
	}
}

// The solver counters must reach the sink: a traced fig1 run exercises the
// cutting planes and the flow engine.
func TestTraceCounters(t *testing.T) {
	c := fig1Circuit(t)
	rec := trace.NewRecorder()
	_, rep, err := Retime(c, Options{Objective: MinAreaAtMinPeriod, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter("classes"); got != int64(rep.NumClasses) {
		t.Errorf("classes counter = %d, want %d", got, rep.NumClasses)
	}
	if got := rec.Counter("steps-possible"); got != rep.StepsPossible {
		t.Errorf("steps-possible counter = %d, want %d", got, rep.StepsPossible)
	}
	if rec.Counter("minperiod-probes") == 0 {
		t.Error("no minperiod probes counted")
	}
}

// passOrder is the span sequence of a flow that needs no §5.2 retry.
var passOrder = []string{PassBuild, PassBounds, PassShare, PassRetry, PassMinPeriod, PassMinArea, PassRelocate}

// spanNames lists the recorded spans in the order they began.
func spanNames(rec *trace.Recorder) []string {
	var names []string
	for _, sp := range rec.Spans() {
		names = append(names, sp.Name)
	}
	return names
}

// preparedFlow runs steps 1-3 on the fig1 circuit under opts, so a test can
// drive the solve half with stub steps.
func preparedFlow(t *testing.T, opts Options) *flowState {
	t.Helper()
	s := &flowState{in: fig1Circuit(t), opts: opts, rep: &Report{}, pool: &graph.CutPool{}}
	if err := s.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

// conflictAt returns a §5.2 justification conflict whose bound is already
// tight, so recovering from it changes nothing but Report.Retries.
func conflictAt(s *flowState) error {
	return &mcgraph.ErrJustify{Conflicts: []mcgraph.Conflict{{V: 1, Achieved: s.bounds.Max[1]}}}
}

// withFailpoints returns ctx with the failpoint spec armed for it alone.
func withFailpoints(t *testing.T, ctx context.Context, spec string) context.Context {
	t.Helper()
	set, err := failpoint.ParseSet(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, release := failpoint.With(ctx, set)
	t.Cleanup(release)
	return ctx
}

func TestFlowRunsPassesInOrder(t *testing.T) {
	rec := trace.NewRecorder()
	_, rep, err := Retime(fig1Circuit(t), Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 0 {
		t.Fatalf("fig1 needed %d retries; the expected order assumes none", rep.Retries)
	}
	if got := spanNames(rec); !slices.Equal(got, passOrder) {
		t.Errorf("passes ran as %v, want %v", got, passOrder)
	}
}

// A failing pass ends the flow: no later pass starts, inside or outside the
// §5.2 loop.
func TestFlowStopsAtFirstError(t *testing.T) {
	for _, stop := range []string{PassBounds, PassMinArea} {
		t.Run(stop, func(t *testing.T) {
			rec := trace.NewRecorder()
			ctx := withFailpoints(t, context.Background(), "pass."+stop+"=error(internal)")
			_, _, err := RetimeCtx(ctx, fig1Circuit(t), Options{Trace: rec})
			if !errors.Is(err, rterr.ErrInternal) {
				t.Fatalf("err = %v, want the injected ErrInternal", err)
			}
			want := passOrder[:slices.Index(passOrder, stop)+1]
			if got := spanNames(rec); !slices.Equal(got, want) {
				t.Errorf("passes ran as %v, want %v", got, want)
			}
		})
	}
}

// Every step gets a span, and its wall time lands in Report.PassTimes in
// flow order; the solve+implement loop has a span but no PassTimes entry.
func TestFlowRecordsSpansAndWallTimes(t *testing.T) {
	rec := trace.NewRecorder()
	_, rep, err := Retime(fig1Circuit(t), Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range passOrder {
		if !slices.Contains(spanNames(rec), name) {
			t.Errorf("no span named %q", name)
		}
	}
	var timed []string
	for _, pt := range rep.PassTimes {
		timed = append(timed, pt.Name)
		if pt.Wall <= 0 {
			t.Errorf("pass %s: wall time %v", pt.Name, pt.Wall)
		}
	}
	want := []string{PassBuild, PassBounds, PassShare, PassMinPeriod, PassMinArea, PassRelocate}
	if !slices.Equal(timed, want) {
		t.Errorf("PassTimes = %v, want %v", timed, want)
	}
}

// A context cancelled between passes stops the flow before the next pass
// opens its span.
func TestFlowStopsBeforePassOnCancelledContext(t *testing.T) {
	s := preparedFlow(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	minPeriod := func(ctx context.Context, s *flowState) error {
		err := runMinPeriod(ctx, s)
		cancel()
		return err
	}
	ranMinArea := false
	minArea := func(context.Context, *flowState) error { ranMinArea = true; return nil }
	rec := trace.NewRecorder()
	err := s.solve(traced(ctx, rec), minPeriod, minArea)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ranMinArea {
		t.Error("minarea ran after cancellation")
	}
	if got, want := spanNames(rec), []string{PassRetry, PassMinPeriod}; !slices.Equal(got, want) {
		t.Errorf("passes ran as %v, want %v", got, want)
	}
}

func TestSolveRetrySucceedsAfterRecovery(t *testing.T) {
	want, _, err := Retime(fig1Circuit(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := preparedFlow(t, Options{})
	attempts := 0
	minPeriod := func(ctx context.Context, s *flowState) error {
		attempts++
		if attempts < 3 {
			return conflictAt(s)
		}
		return runMinPeriod(ctx, s)
	}
	if err := s.solve(context.Background(), minPeriod, runMinArea); err != nil {
		t.Fatal(err)
	}
	if attempts != 3 || s.rep.Retries != 2 {
		t.Errorf("attempts=%d retries=%d, want 3 and 2", attempts, s.rep.Retries)
	}
	if circuitText(t, s.out) != circuitText(t, want) {
		t.Error("result after recovered conflicts differs from a plain Retime")
	}
}

func TestSolveRetryGivesUpAfterMaxRetries(t *testing.T) {
	s := preparedFlow(t, Options{MaxRetries: 2})
	attempts := 0
	minPeriod := func(_ context.Context, s *flowState) error { attempts++; return conflictAt(s) }
	err := s.solve(context.Background(), minPeriod, runMinArea)
	var je *mcgraph.ErrJustify
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want the justification conflict", err)
	}
	if attempts != 3 || s.rep.Retries != 2 { // initial try + MaxRetries
		t.Errorf("attempts=%d retries=%d, want 3 and 2", attempts, s.rep.Retries)
	}
}

// An error recoverJustifyConflict cannot repair is not retried.
func TestSolveRetryStopsWhenRecoveryDeclines(t *testing.T) {
	s := preparedFlow(t, Options{})
	boom := errors.New("boom")
	attempts := 0
	minPeriod := func(context.Context, *flowState) error { attempts++; return boom }
	if err := s.solve(context.Background(), minPeriod, runMinArea); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if attempts != 1 || s.rep.Retries != 0 {
		t.Errorf("attempts=%d retries=%d, want 1 and 0", attempts, s.rep.Retries)
	}
}

// A conflict that arrives with a cancelled context is returned as is: the
// loop does not recover from it and re-solve.
func TestSolveNeverRetriesCancellation(t *testing.T) {
	s := preparedFlow(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attempts := 0
	minPeriod := func(_ context.Context, s *flowState) error {
		attempts++
		cancel()
		return conflictAt(s)
	}
	err := s.solve(ctx, minPeriod, runMinArea)
	var je *mcgraph.ErrJustify
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want the conflict of the only attempt", err)
	}
	if attempts != 1 || s.rep.Retries != 0 {
		t.Errorf("attempts=%d retries=%d, want 1 and 0 (no retry after cancel)", attempts, s.rep.Retries)
	}
}

func TestFlowCrashBecomesPanicError(t *testing.T) {
	s := &flowState{in: fig1Circuit(t), opts: Options{}, rep: &Report{}, pool: &graph.CutPool{}}
	err := s.prepare(withFailpoints(t, context.Background(), "pass.bounds=panic(boom)"))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Pass != PassBounds || !slices.Equal(pe.Trail, []string{PassBounds}) {
		t.Errorf("Pass = %q, Trail = %v, want bounds and [bounds]", pe.Pass, pe.Trail)
	}
	if want := `pass "bounds" crashed (trail [bounds]): failpoint pass.bounds: boom`; err.Error() != want {
		t.Errorf("message = %q, want %q", err.Error(), want)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !errors.Is(err, rterr.ErrInternal) {
		t.Error("PanicError does not wrap rterr.ErrInternal")
	}
	if s.m == nil || s.g != nil {
		t.Error("want build done and share never started")
	}
	if len(s.trail) != 0 {
		t.Errorf("trail not unwound: %v", s.trail)
	}
}

func TestSolveCrashCarriesLoopTrail(t *testing.T) {
	s := preparedFlow(t, Options{})
	crash := func(context.Context, *flowState) error {
		var m map[string]int
		m["w"] = 1 // nil-map write: crashes the step
		return nil
	}
	err := s.solve(context.Background(), runMinPeriod, crash)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if want := []string{PassRetry, PassMinArea}; pe.Pass != PassMinArea || !slices.Equal(pe.Trail, want) {
		t.Errorf("Pass = %q, Trail = %v, want minarea and %v", pe.Pass, pe.Trail, want)
	}
	if len(pe.Stack) == 0 || !errors.Is(err, rterr.ErrInternal) {
		t.Error("want a stack and an error wrapping rterr.ErrInternal")
	}
	if len(s.trail) != 0 {
		t.Errorf("trail not unwound: %v", s.trail)
	}
}
