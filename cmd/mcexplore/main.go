// Command mcexplore computes the Pareto front of feasible clock period vs.
// register count for a circuit: a design-space sweep over the candidate
// periods (the distinct D-matrix entries), each solved for minimum
// shared-register area.
//
// Usage:
//
//	mcexplore [-o front.json] [-csv front.csv] [-store DIR] [-points N]
//	          [-map] [-j N] [-timeout D] in.{mcn,blif}
//
// The front is written as stable mcretiming-front/v1 JSON to stdout (or -o)
// and optionally as CSV for plotting. Its first point is bit-identical to
// the single-point `mcretime` (minimum area at minimum period) result, and
// the output is deterministic at any -j.
//
// -store points at a persistent content-addressed result store (default:
// the MCRETIMING_STORE environment variable; empty disables persistence).
// Solved points are keyed by circuit content + solver options, so repeated
// sweeps — across runs and processes — load from disk instead of re-solving.
// A corrupted store entry is silently re-solved, never served.
//
// A "store:" summary line on stderr reports points served from the store vs
// solved fresh, e.g. `store: 12/13 points from store (dir /x, 1 solved)`.
//
// SIGINT/SIGTERM cancel the sweep cleanly. Exit codes: 0 success, 2
// infeasible, 3 malformed input, 4 budget/timeout/interrupt, 1 other.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mcretiming"
	"mcretiming/internal/failpoint"
)

func exitCode(err error) int {
	switch {
	case errors.Is(err, mcretiming.ErrInfeasiblePeriod):
		return 2
	case errors.Is(err, mcretiming.ErrMalformedInput):
		return 3
	case errors.Is(err, mcretiming.ErrBudgetExceeded),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return 4
	}
	return 1
}

func main() {
	defer func() {
		if r := recover(); r != nil {
			fatal(fmt.Errorf("internal error: %v", r))
		}
	}()
	outFile := flag.String("o", "", "write the front JSON here (default: stdout)")
	csvFile := flag.String("csv", "", "also write the front as CSV here")
	storeDir := flag.String("store", os.Getenv("MCRETIMING_STORE"),
		"persistent result store directory (default: $MCRETIMING_STORE; empty = no persistence)")
	points := flag.Int("points", 0, "cap the number of solved points (0 = all candidate periods)")
	doMap := flag.Bool("map", false, "map to 4-LUTs before sweeping")
	jobs := flag.Int("j", 0, "sweep parallelism: periods solved concurrently (0 = GOMAXPROCS; front is identical at any setting)")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this long (e.g. 2m; 0 = no limit)")
	quiet := flag.Bool("q", false, "suppress the per-point progress on stderr")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcexplore [flags] in.{mcn,blif}")
		flag.PrintDefaults()
		fmt.Fprintln(os.Stderr, `
exit codes:
  0  success
  2  infeasible
  3  malformed input circuit or file
  4  resource budget, timeout, or interrupt
  1  any other failure`)
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(1)
	}
	if err := failpoint.ArmFromEnv(); err != nil {
		fatal(err)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	var c *mcretiming.Circuit
	if strings.HasSuffix(flag.Arg(0), ".blif") {
		c, err = mcretiming.ReadBLIF(f)
	} else {
		c, err = mcretiming.ReadNetlist(f)
	}
	f.Close()
	if err != nil {
		fatal(err)
	}
	if *doMap {
		if c, err = mcretiming.MapXC4000(mcretiming.DecomposeSyncResets(c.Clone())); err != nil {
			fatal(err)
		}
	}

	opts := mcretiming.ExploreOptions{Parallelism: *jobs, MaxPoints: *points}
	if *storeDir != "" {
		if opts.Store, err = mcretiming.OpenStore(*storeDir); err != nil {
			fatal(err)
		}
	}
	if !*quiet {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rexplore: %d/%d points", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	front, err := mcretiming.Explore(ctx, c, opts)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fatal(fmt.Errorf("timed out after %v: %w", *timeout, err))
		}
		if errors.Is(err, context.Canceled) {
			fatal(fmt.Errorf("interrupted: %w", err))
		}
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "%s: %d Pareto points (%d swept, %d dominated), period %.1f..%.1f ns, regs %d..%d, %v\n",
		front.Circuit, len(front.Points), front.CandidatesSwept, front.Dominated,
		float64(front.MinPeriodPS)/1000,
		float64(front.Points[len(front.Points)-1].PeriodPS)/1000,
		front.Points[0].Regs, front.Points[len(front.Points)-1].Regs,
		front.Wall.Round(1e6))
	if opts.Store != nil {
		// The CI smoke job parses this line: keep its shape stable.
		fmt.Fprintf(os.Stderr, "store: %d/%d points from store (dir %s, %d solved)\n",
			front.StoreHits, front.StoreHits+front.StoreMisses, opts.Store.Dir(), front.StoreMisses)
	}

	w := os.Stdout
	if *outFile != "" {
		if w, err = os.Create(*outFile); err != nil {
			fatal(err)
		}
		defer w.Close()
	}
	if err := front.WriteJSON(w); err != nil {
		fatal(err)
	}
	if *csvFile != "" {
		cf, err := os.Create(*csvFile)
		if err != nil {
			fatal(err)
		}
		if err := front.WriteCSV(cf); err != nil {
			cf.Close()
			fatal(err)
		}
		if err := cf.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcexplore:", err)
	os.Exit(exitCode(err))
}
