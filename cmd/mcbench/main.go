// Command mcbench regenerates the paper's experimental tables and figures
// on the synthetic circuit suite.
//
// Usage:
//
//	mcbench [-table 1|2|3] [-fig1] [-passes]
//
// With no flags it runs everything. -passes adds the per-pass runtime
// breakdown of the retiming pipeline under Table 2. The repo's performance
// benchmark is perfbench (perfbench/run.sh), not this command.
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
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcbench [-table 1|2|3] [-fig1] [-passes]")
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

	if *fig1 {
		r, err := bench.RunFig1(ctx)
		if err != nil {
			fatal(err)
		}
		bench.PrintFig1(os.Stdout, r)
		return
	}
	rows, err := bench.RunSuite(ctx)
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
		if r, err := bench.RunFig1(ctx); err == nil {
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
