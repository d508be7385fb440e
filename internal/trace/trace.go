// Package trace is the structured observability layer of the retiming flow:
// hierarchical spans with per-span wall time and named counters, fed through
// the Sink interface by the passes of the flow (internal/core) and by the
// solver inner loops (lazy period cuts, min-cost-flow augmentations, justification).
//
// The default sink is a no-op, so uninstrumented runs pay nothing beyond an
// interface call per event. NewRecorder collects the span tree in memory and
// renders it as an indented text report (WriteText) or as Chrome trace-event
// JSON (WriteChromeTrace; load it in chrome://tracing or ui.perfetto.dev).
//
// Deep solver loops receive the sink through a context.Context (With/From),
// so their signatures carry only the ctx they already need for cancellation.
package trace

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Sink receives the structured events of an instrumented run.
//
// BeginSpan/EndSpan bracket hierarchical timed regions; Add accumulates a
// delta into a named counter of the innermost open span (or into the run's
// root counters when no span is open). Implementations must tolerate Add
// calls from the goroutine driving the spans at any point.
type Sink interface {
	BeginSpan(name string)
	EndSpan()
	Add(counter string, delta int64)
}

type nopSink struct{}

func (nopSink) BeginSpan(string)  {}
func (nopSink) EndSpan()          {}
func (nopSink) Add(string, int64) {}

// Nop returns the do-nothing Sink.
func Nop() Sink { return nopSink{} }

type ctxKey struct{}

// With returns a context carrying sink, for retrieval with From inside
// solver loops. A nil sink stores the no-op sink.
func With(ctx context.Context, sink Sink) context.Context {
	if sink == nil {
		sink = Nop()
	}
	return context.WithValue(ctx, ctxKey{}, sink)
}

// From returns the Sink carried by ctx, or the no-op sink.
func From(ctx context.Context) Sink {
	if s, ok := ctx.Value(ctxKey{}).(Sink); ok {
		return s
	}
	return Nop()
}

// Span is one recorded region of a run.
type Span struct {
	Name     string
	Start    time.Duration // offset from the recorder's creation
	Duration time.Duration
	Parent   int // index of the parent span in Spans(), -1 for roots
	Depth    int
	Counters map[string]int64 // nil when the span recorded no counters
}

// Recorder is a Sink that records the span tree in memory.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	root  map[string]int64
}

type span struct {
	name     string
	start    time.Duration
	duration time.Duration
	parent   int
	depth    int
	closed   bool
	counters map[string]int64
}

// NewRecorder returns an empty recording sink; its epoch (span offsets'
// zero) is the moment of the call.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), root: make(map[string]int64)}
}

func (r *Recorder) now() time.Duration { return time.Since(r.epoch) }

// BeginSpan implements Sink.
func (r *Recorder) BeginSpan(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent, depth := -1, 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
		depth = r.spans[parent].depth + 1
	}
	r.spans = append(r.spans, span{name: name, start: r.now(), parent: parent, depth: depth})
	r.open = append(r.open, len(r.spans)-1)
}

// EndSpan implements Sink. Unbalanced calls are ignored.
func (r *Recorder) EndSpan() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.open) == 0 {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].duration = r.now() - r.spans[i].start
	r.spans[i].closed = true
}

// Add implements Sink.
func (r *Recorder) Add(counter string, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.open) > 0 {
		sp := &r.spans[r.open[len(r.open)-1]]
		if sp.counters == nil {
			sp.counters = make(map[string]int64)
		}
		sp.counters[counter] += delta
		return
	}
	r.root[counter] += delta
}

// Spans returns a snapshot of the recorded spans in begin order. Spans still
// open are reported with their duration up to now.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]Span, len(r.spans))
	for i, sp := range r.spans {
		d := sp.duration
		if !sp.closed {
			d = now - sp.start
		}
		var counters map[string]int64
		if len(sp.counters) > 0 {
			counters = make(map[string]int64, len(sp.counters))
			for k, v := range sp.counters {
				counters[k] = v
			}
		}
		out[i] = Span{Name: sp.name, Start: sp.start, Duration: d,
			Parent: sp.parent, Depth: sp.depth, Counters: counters}
	}
	return out
}

// Total returns the summed duration of every recorded span named name
// (retried passes appear once per attempt and sum here).
func (r *Recorder) Total(name string) time.Duration {
	var total time.Duration
	for _, sp := range r.Spans() {
		if sp.Name == name {
			total += sp.Duration
		}
	}
	return total
}

// Counter returns the summed value of the named counter over the root and
// every span.
func (r *Recorder) Counter(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.root[name]
	for i := range r.spans {
		total += r.spans[i].counters[name]
	}
	return total
}

// RootCounters returns a copy of the counters recorded outside any span.
func (r *Recorder) RootCounters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.root))
	for k, v := range r.root {
		out[k] = v
	}
	return out
}

// AllCounters returns every counter of the recorder — root plus all spans —
// summed by name. Span identity is lost; this is the projection a parent
// run folds into its own sink when it ran children on private recorders.
func (r *Recorder) AllCounters() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.root))
	for k, v := range r.root {
		out[k] = v
	}
	for i := range r.spans {
		for k, v := range r.spans[i].counters {
			out[k] += v
		}
	}
	return out
}

// MergeCounters folds every counter of rec into dst in sorted-name order, so
// a deterministic sink sees a deterministic sequence regardless of how the
// recorder was populated. Parallel stages record into private Recorders and
// merge here instead of sharing one sink concurrently.
func MergeCounters(dst Sink, rec *Recorder) {
	if dst == nil || rec == nil {
		return
	}
	all := rec.AllCounters()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dst.Add(name, all[name])
	}
}
