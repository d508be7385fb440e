// Command mcbench regenerates the paper's experimental tables and figures
// on the synthetic circuit suite.
//
// Usage:
//
//	mcbench [-table 1|2|3] [-fig1] [-passes]
//	        [-json out.json [-pr label] [-explore [-explore-points N]] [-engines]]
//
// With no flags it runs everything. -passes adds the per-pass runtime
// breakdown of the retiming pipeline under Table 2. -json skips the tables
// and instead writes a machine-readable performance snapshot — the
// full-suite wall time and the solve-cache hit/miss counters — seeding the
// cross-PR benchmark trajectory; -pr labels the snapshot. -explore
// additionally measures the design-space sweep on the profile circuit (cold
// sweep vs warm store-served sweep vs naive per-period Retime calls); it
// solves the profile circuit many times, so expect it to take a while.
//
// SIGINT/SIGTERM cancel the run context so a Ctrl-C during the suite exits
// with code 4 instead of being killed mid-table.
//
// Exit codes: 0 success, 2 period infeasible, 3 malformed input, 4 resource
// budget, timeout, or interrupt, 1 any other failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mcretiming/internal/bench"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/rterr"
)

func main() {
	table := flag.Int("table", 0, "print only this table (1, 2 or 3)")
	fig1 := flag.Bool("fig1", false, "print only the Fig. 1 comparison")
	passes := flag.Bool("passes", false, "also print the per-pass retiming runtime breakdown")
	jsonOut := flag.String("json", "", "write a performance snapshot (JSON) here instead of printing tables")
	prLabel := flag.String("pr", "", "label recorded in the -json snapshot")
	exploreFlag := flag.Bool("explore", false, "with -json: also measure the design-space sweep (cold vs warm vs naive; slow)")
	explorePoints := flag.Int("explore-points", 6, "points the -explore sweep solves (0 = every candidate period)")
	enginesFlag := flag.Bool("engines", false, "with -json: also measure sparse vs dense cold solves and the ECO re-prepare path (slow)")
	warmFlag := flag.Bool("warm", false, "with -json: also measure cold vs warm-started minperiod on the 50k-vertex profile")
	gateFlag := flag.String("gate", "", "with -json: committed baseline snapshot to gate against (>10% wall regression or <2x warm speedup fails)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcbench [-table 1|2|3] [-fig1] [-passes] [-json out.json [-pr label] [-explore]]")
		flag.PrintDefaults()
		fmt.Fprintln(os.Stderr, `
exit codes:
  0  success
  2  period infeasible
  3  malformed input circuit
  4  resource budget, timeout, or interrupt
  1  any other failure`)
	}
	flag.Parse()
	if err := failpoint.ArmFromEnv(); err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *jsonOut != "" {
		p, err := bench.MeasurePerfCtx(ctx)
		if err != nil {
			fatal(err)
		}
		p.PR = *prLabel
		if *exploreFlag {
			ep, err := bench.MeasureExploreCtx(ctx, *explorePoints)
			if err != nil {
				fatal(err)
			}
			p.Explore = ep
		}
		if *enginesFlag {
			eng, err := bench.MeasureEnginesCtx(ctx)
			if err != nil {
				fatal(err)
			}
			p.Engines = eng
		}
		if *warmFlag || *gateFlag != "" {
			wp, err := bench.MeasureWarmCtx(ctx)
			if err != nil {
				fatal(err)
			}
			p.Warm = wp
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := p.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		diverged := false
		for _, pt := range p.Table2 {
			fmt.Fprintf(os.Stderr, "table2 %8.2fms\n", float64(pt.WallNS)/1e6)
		}
		fmt.Fprintf(os.Stderr, "cache  wd %d/%d  base %d/%d (hits/misses)\n",
			p.SolveCache.WDHits, p.SolveCache.WDMisses, p.SolveCache.BaseHits, p.SolveCache.BaseMisses)
		if ep := p.Explore; ep != nil {
			fmt.Fprintf(os.Stderr, "explore cold  %8.2fms  (%d points, cache wd %d/%d base %d/%d)\n",
				float64(ep.ColdNS)/1e6, ep.Points,
				ep.ColdCache.WDHits, ep.ColdCache.WDMisses, ep.ColdCache.BaseHits, ep.ColdCache.BaseMisses)
			fmt.Fprintf(os.Stderr, "explore warm  %8.2fms  speedup %.2fx  store %d/%d  identical=%v\n",
				float64(ep.WarmNS)/1e6, ep.WarmSpeedup, ep.WarmHits, ep.WarmHits+ep.WarmMisses, ep.WarmIdentical)
			fmt.Fprintf(os.Stderr, "explore naive %8.2fms  cold speedup vs naive %.2fx\n",
				float64(ep.NaiveNS)/1e6, ep.NaiveSpeedup)
			diverged = diverged || !ep.WarmIdentical
		}
		if eng := p.Engines; eng != nil {
			fmt.Fprintf(os.Stderr, "engine dense  %8.2fms  sparse %8.2fms  sparse speedup %.2fx  identical=%v  (%d vertices)\n",
				float64(eng.DenseColdNS)/1e6, float64(eng.SparseColdNS)/1e6, eng.SparseSpeedup, eng.Identical, eng.Vertices)
			fmt.Fprintf(os.Stderr, "eco    cold   %8.2fms  apply  %8.2fms  eco speedup %.2fx  identical=%v\n",
				float64(eng.PrepareNS)/1e6, float64(eng.ApplyNS)/1e6, eng.EcoSpeedup, eng.EcoIdentical)
			diverged = diverged || !eng.Identical || !eng.EcoIdentical
		}
		if wp := p.Warm; wp != nil {
			fmt.Fprintf(os.Stderr, "warm   cold   %8.2fms  warm   %8.2fms  speedup %.2fx  identical=%v  spfa cold starts %d->%d  (%d vertices)\n",
				float64(wp.ColdNS)/1e6, float64(wp.WarmNS)/1e6,
				wp.Speedup, wp.Identical, wp.SPFAColdStartsCold, wp.SPFAColdStartsWarm, wp.Vertices)
			diverged = diverged || !wp.Identical
		}
		// Timing is advisory, identity is the contract: a fast path whose
		// result differs from its reference is a hard failure.
		if diverged {
			fatal(fmt.Errorf("result diverged from its reference"))
		}
		if *gateFlag != "" {
			base, err := bench.LoadPerf(*gateFlag)
			if err != nil {
				fatal(err)
			}
			violations, skipped := bench.Gate(p, base)
			for _, s := range skipped {
				fmt.Fprintln(os.Stderr, "gate: skipped:", s)
			}
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "gate: FAIL:", v)
			}
			if len(violations) > 0 {
				fatal(fmt.Errorf("bench gate: %d regression(s) vs %s", len(violations), *gateFlag))
			}
			fmt.Fprintln(os.Stderr, "gate: ok")
		}
		return
	}

	if *fig1 {
		r, err := bench.RunFig1Ctx(ctx)
		if err != nil {
			fatal(err)
		}
		bench.PrintFig1(os.Stdout, r)
		return
	}
	rows, err := bench.RunSuiteCtx(ctx)
	if err != nil {
		fatal(err)
	}
	switch *table {
	case 1:
		bench.PrintTable1(os.Stdout, rows)
	case 2:
		bench.PrintTable2(os.Stdout, rows)
		bench.PrintJustifyStats(os.Stdout, rows)
		if *passes {
			fmt.Println()
			bench.PrintPassTimes(os.Stdout, rows)
		}
	case 3:
		bench.PrintTable3(os.Stdout, rows)
	case 0:
		bench.PrintTable1(os.Stdout, rows)
		fmt.Println()
		bench.PrintTable2(os.Stdout, rows)
		bench.PrintJustifyStats(os.Stdout, rows)
		if *passes {
			fmt.Println()
			bench.PrintPassTimes(os.Stdout, rows)
		}
		fmt.Println()
		bench.PrintTable3(os.Stdout, rows)
		fmt.Println()
		if r, err := bench.RunFig1Ctx(ctx); err == nil {
			bench.PrintFig1(os.Stdout, r)
		} else {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown table %d", *table))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcbench:", err)
	switch {
	case errors.Is(err, rterr.ErrInfeasiblePeriod):
		os.Exit(2)
	case errors.Is(err, rterr.ErrMalformedInput):
		os.Exit(3)
	case errors.Is(err, rterr.ErrBudgetExceeded),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		os.Exit(4)
	}
	os.Exit(1)
}
