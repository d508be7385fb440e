package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mcretiming/internal/core"
	"mcretiming/internal/graph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/trace"
	"mcretiming/internal/verify"
	"mcretiming/internal/xc4000"
)

// perLayer lists every per-layer metric with its unit, as BENCHMARK.json
// does. A traced run reports each one; a layer the workload does not reach
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"blif.read_ms", "ms"},
	{"blif.write_ms", "ms"},
	{"xc4000.map_ms", "ms"},
	{"core.retime_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.bounds_ms", "ms"},
	{"mcgraph.steps_possible", "count"},
	{"core.share_ms", "ms"},
	{"mcgraph.share_fanout_vertices", "count"},
	{"core.minperiod_ms", "ms"},
	{"graph.minperiod_probes", "count"},
	{"graph.cuts_generated", "count"},
	{"graph.spfa_cold_starts", "count"},
	{"graph.warm_hits", "count"},
	{"core.minarea_ms", "ms"},
	{"retime.minarea_rounds", "count"},
	{"mcf.flow_augmentations", "count"},
	{"core.relocate_ms", "ms"},
	{"justify.local", "count"},
	{"justify.global", "count"},
	{"justify.conflicts", "count"},
	{"core.retries", "count"},
	{"explore.cold_ms", "ms"},
	{"explore.warm_ms", "ms"},
	{"explore.points", "count"},
	{"store.hit_ratio", "ratio"},
	{"server.admit_ms_p50", "ms"},
	{"server.rejected", "count"},
	{"server.retried", "count"},
	{"tenant.queue_wait_ms_p50", "ms"},
	{"tenant.queue_wait_ms_p95", "ms"},
	{"cluster.run_ms_p50", "ms"},
	{"cluster.run_ms_p95", "ms"},
	{"cluster.dispatched", "count"},
	{"cluster.local_fallback_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"loadgen.late_p95_ms", "ms"},
}

// layers accumulates per-layer figures of a traced run: times measured
// around the calls into each layer, and the engine's pass spans and counters
// read off a trace.Recorder. A nil layers records nothing.
type layers map[string]float64

// time runs fn and, when l records, adds its wall time to the named metric.
func (l layers) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	if l != nil {
		l[name] += ms(time.Since(t0))
	}
	return err
}

// metrics renders l as the per-layer result, in the units perLayer gives.
func (l layers) metrics() metricSet {
	m := metricSet{}
	for _, pl := range perLayer {
		m.set(pl.name, l[pl.name], pl.unit)
	}
	return m
}

// medianLayers takes the per-metric median over several passes' figures.
func medianLayers(ls []layers) layers {
	out := layers{}
	for _, pl := range perLayer {
		vals := make([]float64, len(ls))
		for i, l := range ls {
			vals[i] = l[pl.name]
		}
		out[pl.name] = median(vals)
	}
	return out
}

// passSpans maps the metrics of core.Retime's six-pass split to the span
// names the flow reports through Options.Trace; a span retried under §5.2
// sums over its attempts.
var passSpans = map[string]string{
	"core.build_ms":     core.PassBuild,
	"core.bounds_ms":    core.PassBounds,
	"core.share_ms":     core.PassShare,
	"core.minperiod_ms": core.PassMinPeriod,
	"core.minarea_ms":   core.PassMinArea,
	"core.relocate_ms":  core.PassRelocate,
}

// engineCounters maps count metrics to the engine's trace counters.
var engineCounters = map[string]string{
	"mcgraph.steps_possible":        "steps-possible",
	"mcgraph.share_fanout_vertices": "share-fanout-vertices",
	"graph.minperiod_probes":        "minperiod-probes",
	"graph.cuts_generated":          "cuts-generated",
	"retime.minarea_rounds":         "minarea-rounds",
	"mcf.flow_augmentations":        "flow-augmentations",
	"justify.local":                 "justify-local",
	"justify.global":                "justify-global",
	"justify.conflicts":             "justify-conflicts",
}

// retimeOpts are the options every workload retimes with: the service's
// default, minimum area at the minimum feasible period.
var retimeOpts = core.Options{Objective: core.MinAreaAtMinPeriod}

// retime runs the paper's flow. When l records, the run is traced: a
// trace.Recorder goes in through Options.Trace, and its pass spans and
// counters, plus the process-wide solve counters, are added to l.
func retime(ctx context.Context, c *netlist.Circuit, l layers) (*netlist.Circuit, *core.Report, error) {
	if l == nil {
		return core.RetimeCtx(ctx, c, retimeOpts)
	}
	opts := retimeOpts
	rec := trace.NewRecorder()
	opts.Trace = rec
	cold, warm := graph.ColdStartCount(), graph.TotalCacheStats().WarmHits
	t0 := time.Now()
	out, rep, err := core.RetimeCtx(ctx, c, opts)
	l["core.retime_ms"] += ms(time.Since(t0))
	if err != nil {
		return nil, nil, err
	}
	for name, span := range passSpans {
		l[name] += ms(rec.Total(span))
	}
	for name, counter := range engineCounters {
		l[name] += float64(rec.Counter(counter))
	}
	l["core.retries"] += float64(rep.Retries)
	l["graph.spfa_cold_starts"] += float64(graph.ColdStartCount() - cold)
	l["graph.warm_hits"] += float64(graph.TotalCacheStats().WarmHits - warm)
	return out, rep, nil
}

// checkRetimed is the correctness gate of one result: out must be
// sequentially equivalent to in under internal/verify's three-valued
// simulator, comparing outputs from cycle skip on for extra more cycles over
// seqs random sequences, and the clock period re-measured by timing analysis
// of retimed must equal the reported one.
func checkRetimed(in, out, retimed *netlist.Circuit, rep *core.Report, skip, extra, seqs int) error {
	res, err := verify.Equivalent(in, out, verify.Stimulus{
		Cycles: skip + extra, Seqs: seqs, Skip: skip, Seed: 1, Bias: controlBias(in),
	})
	if err != nil {
		return err
	}
	if res.Compared == 0 {
		return fmt.Errorf("equivalence check compared no known outputs")
	}
	period, err := xc4000.Period(retimed)
	if err != nil {
		return err
	}
	if period != rep.PeriodAfter {
		return fmt.Errorf("re-measured period %d ps, reported %d ps", period, rep.PeriodAfter)
	}
	return nil
}

// controlBias keeps enables mostly on and resets mostly off, so simulation
// leaves the unknown power-up state instead of idling or sitting in reset.
func controlBias(c *netlist.Circuit) map[string]float64 {
	bias := map[string]float64{}
	for _, pi := range c.PIs {
		name := c.Signals[pi].Name
		switch {
		case strings.HasPrefix(name, "en"):
			bias[name] = 0.8
		case strings.HasPrefix(name, "rst"), strings.HasPrefix(name, "arst"):
			bias[name] = 0.15
		}
	}
	return bias
}
