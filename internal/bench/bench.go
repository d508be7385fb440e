// Package bench runs the paper's experiments (§6) on the synthetic suite:
//
//	Table 1 — baseline circuit characteristics after mapping,
//	Table 2 — multiple-class retiming results and ratios,
//	Table 3 — the decompose-enables-first baseline and its ratios,
//	Fig. 1  — the two-register load-enable example, mc-retiming vs
//	          decomposition.
//
// cmd/mcbench prints the tables; bench_test.go wraps them as benchmarks.
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"mcretiming/internal/core"
	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// Row holds one circuit's results across the experiment pipeline.
type Row struct {
	Name string

	// Table 1: the mapped baseline.
	ASAC, EN bool
	FF1      int
	LUT1     int
	Delay1   int64

	// Table 2: mc-retiming (minarea at best delay) + remap.
	Classes       int
	Moved         int64
	Possible      int64
	FF2           int
	LUT2          int
	Delay2        int64
	JustifyLocal  int
	JustifyGlobal int
	Retries       int
	// Justification counts summed over every §5.2 attempt; JustifyLocal and
	// JustifyGlobal count the final attempt's alone.
	AttemptsLocal, AttemptsGlobal, AttemptsConflicts int
	TimeModel                                        time.Duration
	TimeSolve                                        time.Duration
	TimeVerify                                       time.Duration
	// PassTimes holds the per-pass wall-clock breakdown of the Table 2
	// retiming run; TimeModel/TimeSolve/TimeVerify are its coarse aggregates.
	PassTimes []core.PassTime

	// Table 3: enables decomposed before retiming.
	FF3    int
	LUT3   int
	Delay3 int64
}

// Rlut2 returns Table 2's LUT ratio vs the baseline.
func (r *Row) Rlut2() float64 { return ratio(r.LUT2, r.LUT1) }

// Rdelay2 returns Table 2's delay ratio vs the baseline.
func (r *Row) Rdelay2() float64 { return ratio64(r.Delay2, r.Delay1) }

func ratio(a, b int) float64     { return float64(a) / float64(b) }
func ratio64(a, b int64) float64 { return float64(a) / float64(b) }

// RunCircuit executes the full experiment pipeline on one generated circuit.
// Cancelling ctx (e.g. Ctrl-C in cmd/mcbench) aborts the retiming runs
// mid-solve and surfaces as a context error instead of the process dying
// mid-write.
func RunCircuit(ctx context.Context, c *netlist.Circuit) (*Row, error) {
	row := &Row{Name: c.Name}

	// Table 1 flow: decompose synchronous set/clear (XC4000E registers have
	// none), map, measure.
	mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	st1, err := xc4000.Report(mapped)
	if err != nil {
		return nil, err
	}
	row.ASAC, row.EN = st1.HasAR, st1.HasEN
	row.FF1, row.LUT1, row.Delay1 = st1.FFs, st1.LUTs+st1.Carry, st1.Delay

	// Table 2 flow: "retime" on the mapped netlist, then "remap".
	retimed, rep, err := core.RetimeCtx(ctx, mapped, core.Options{Objective: core.MinAreaAtMinPeriod})
	if err != nil {
		return nil, fmt.Errorf("%s: retime: %w", c.Name, err)
	}
	remapped, err := xc4000.Map(retimed)
	if err != nil {
		return nil, fmt.Errorf("%s: remap: %w", c.Name, err)
	}
	st2, err := xc4000.Report(remapped)
	if err != nil {
		return nil, err
	}
	row.Classes = rep.NumClasses
	row.Moved, row.Possible = rep.StepsMoved, rep.StepsPossible
	row.FF2, row.LUT2, row.Delay2 = st2.FFs, st2.LUTs+st2.Carry, st2.Delay
	row.JustifyLocal, row.JustifyGlobal = rep.JustifyLocal, rep.JustifyGlobal
	row.Retries = rep.Retries
	for _, a := range rep.Attempts {
		row.AttemptsLocal += a.JustifyLocal
		row.AttemptsGlobal += a.JustifyGlobal
		row.AttemptsConflicts += a.JustifyConflicts
	}
	row.TimeModel, row.TimeSolve, row.TimeVerify = rep.TimeModel, rep.TimeSolve, rep.TimeVerify
	row.PassTimes = rep.PassTimes

	// Table 3 flow: decompose the enables first, then retime and remap.
	noen, err := xc4000.Map(xc4000.DecomposeEnables(xc4000.DecomposeSyncResets(c.Clone())))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	noenRetimed, _, err := core.RetimeCtx(ctx, noen, core.Options{Objective: core.MinAreaAtMinPeriod})
	if err != nil {
		return nil, fmt.Errorf("%s: no-enable retime: %w", c.Name, err)
	}
	noenRemapped, err := xc4000.Map(noenRetimed)
	if err != nil {
		return nil, err
	}
	st3, err := xc4000.Report(noenRemapped)
	if err != nil {
		return nil, err
	}
	row.FF3, row.LUT3, row.Delay3 = st3.FFs, st3.LUTs+st3.Carry, st3.Delay
	return row, nil
}

// RunSuite executes the pipeline over the whole generated suite.
// Cancelling ctx stops it between (and inside) circuits with a context
// error.
func RunSuite(ctx context.Context) ([]*Row, error) {
	suite, err := gen.Suite()
	if err != nil {
		return nil, err
	}
	var rows []*Row
	for _, c := range suite {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row, err := RunCircuit(ctx, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Totals aggregates rows the way the paper's "Totals" lines do.
type Totals struct {
	FF1, LUT1, FF2, LUT2, FF3, LUT3 int
	Delay1, Delay2, Delay3          int64
}

// Sum computes the totals over rows.
func Sum(rows []*Row) Totals {
	var t Totals
	for _, r := range rows {
		t.FF1 += r.FF1
		t.LUT1 += r.LUT1
		t.Delay1 += r.Delay1
		t.FF2 += r.FF2
		t.LUT2 += r.LUT2
		t.Delay2 += r.Delay2
		t.FF3 += r.FF3
		t.LUT3 += r.LUT3
		t.Delay3 += r.Delay3
	}
	return t
}

// ns renders picoseconds as the paper's nanosecond columns.
func ns(ps int64) float64 { return float64(ps) / 1000 }

// PrintTable1 writes the Table 1 analogue.
func PrintTable1(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Table 1: Circuit Characteristics (mapped baseline)")
	fmt.Fprintf(w, "%-6s %-6s %-4s %6s %6s %8s\n", "Name", "AS/AC", "EN", "#FF", "#LUT", "Delay")
	mark := func(b bool) string {
		if b {
			return "y"
		}
		return "-"
	}
	t := Sum(rows)
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-6s %-4s %6d %6d %8.1f\n",
			r.Name, mark(r.ASAC), mark(r.EN), r.FF1, r.LUT1, ns(r.Delay1))
	}
	fmt.Fprintf(w, "%-6s %-6s %-4s %6d %6d %8.1f\n", "Totals", "", "", t.FF1, t.LUT1, ns(t.Delay1))
}

// PrintTable2 writes the Table 2 analogue.
func PrintTable2(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Table 2: Multiple-Class Retiming Results")
	fmt.Fprintf(w, "%-6s %7s %12s %6s %6s %8s %6s %7s\n",
		"Name", "#Class", "#Step", "#FF", "#LUT", "Delay", "Rlut", "Rdelay")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %7d %5d/%-6d %6d %6d %8.1f %6.2f %7.2f\n",
			r.Name, r.Classes, r.Moved, r.Possible, r.FF2, r.LUT2, ns(r.Delay2),
			r.Rlut2(), r.Rdelay2())
	}
	t := Sum(rows)
	fmt.Fprintf(w, "%-6s %7s %12s %6d %6d %8.1f %6.2f %7.2f\n",
		"Total", "", "", t.FF2, t.LUT2, ns(t.Delay2),
		ratio(t.LUT2, t.LUT1), ratio64(t.Delay2, t.Delay1))
}

// PrintTable3 writes the Table 3 analogue.
func PrintTable3(w io.Writer, rows []*Row) {
	fmt.Fprintln(w, "Table 3: Retiming Results without using Load Enable Inputs")
	fmt.Fprintf(w, "%-6s %6s %6s %8s %6s %8s %6s %8s\n",
		"Name", "#FF", "#LUT", "Delay", "Rlut1", "Rdelay1", "Rlut2", "Rdelay2")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %6d %6d %8.1f %6.2f %8.2f %6.2f %8.2f\n",
			r.Name, r.FF3, r.LUT3, ns(r.Delay3),
			ratio(r.LUT3, r.LUT1), ratio64(r.Delay3, r.Delay1),
			ratio(r.LUT3, r.LUT2), ratio64(r.Delay3, r.Delay2))
	}
	t := Sum(rows)
	fmt.Fprintf(w, "%-6s %6d %6d %8.1f %6.2f %8.2f %6.2f %8.2f\n",
		"Totals", t.FF3, t.LUT3, ns(t.Delay3),
		ratio(t.LUT3, t.LUT1), ratio64(t.Delay3, t.Delay1),
		ratio(t.LUT3, t.LUT2), ratio64(t.Delay3, t.Delay2))
}

// PrintJustifyStats writes the §6 justification and runtime statistics.
func PrintJustifyStats(w io.Writer, rows []*Row) {
	var local, global, retries, allLocal, allGlobal, conflicts int
	var tm, ts, tv time.Duration
	for _, r := range rows {
		local += r.JustifyLocal
		global += r.JustifyGlobal
		retries += r.Retries
		allLocal += r.AttemptsLocal
		allGlobal += r.AttemptsGlobal
		conflicts += r.AttemptsConflicts
		tm += r.TimeModel
		ts += r.TimeSolve
		tv += r.TimeVerify
	}
	tot := tm + ts + tv
	fmt.Fprintf(w, "Justifications: %d local, %d global (%.2f%% global), %d re-retimings\n",
		local, global, 100*float64(global)/float64(max(1, local+global)), retries)
	fmt.Fprintf(w, "Over every attempt: %d local, %d global (%.2f%% global), %d conflicts\n",
		allLocal, allGlobal, 100*float64(allGlobal)/float64(max(1, allLocal+allGlobal)), conflicts)
	fmt.Fprintf(w, "CPU split: %.0f%% retiming engine, %.0f%% relocation+reset states, %.0f%% mc-graph/classes/bounds (total %v)\n",
		pct(ts, tot), pct(tv, tot), pct(tm, tot), tot.Round(time.Millisecond))
}

func pct(d, tot time.Duration) float64 {
	if tot == 0 {
		return 0
	}
	return 100 * float64(d) / float64(tot)
}

// PrintPassTimes writes the per-pass wall-clock breakdown of the Table 2
// retiming runs: one column per pipeline pass, one row per circuit. The
// column set is the union over all rows, in first-seen pipeline order, so
// the table stays correct if a pass is skipped for some circuit.
func PrintPassTimes(w io.Writer, rows []*Row) {
	var order []string
	seen := make(map[string]bool)
	for _, r := range rows {
		for _, pt := range r.PassTimes {
			if !seen[pt.Name] {
				seen[pt.Name] = true
				order = append(order, pt.Name)
			}
		}
	}
	if len(order) == 0 {
		return
	}
	fmt.Fprintln(w, "Per-pass retiming runtime (ms)")
	fmt.Fprintf(w, "%-6s", "Name")
	for _, name := range order {
		fmt.Fprintf(w, " %*s", max(9, len(name)), name)
	}
	fmt.Fprintln(w)
	totals := make(map[string]time.Duration)
	for _, r := range rows {
		byName := make(map[string]time.Duration, len(r.PassTimes))
		for _, pt := range r.PassTimes {
			byName[pt.Name] = pt.Wall
			totals[pt.Name] += pt.Wall
		}
		fmt.Fprintf(w, "%-6s", r.Name)
		for _, name := range order {
			fmt.Fprintf(w, " %*.2f", max(9, len(name)), float64(byName[name].Microseconds())/1000)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-6s", "Totals")
	for _, name := range order {
		fmt.Fprintf(w, " %*.2f", max(9, len(name)), float64(totals[name].Microseconds())/1000)
	}
	fmt.Fprintln(w)
}
