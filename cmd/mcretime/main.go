// Command mcretime retimes a circuit in the textual netlist format.
//
// Usage:
//
//	mcretime [-minperiod | -period NS] [-o out] [-map] [-verify] [-critical] [-slack N] [-blif] [-trace out.json] [-timeout D] in.{mcn,blif}
//
// The default objective is minimum area at the minimum feasible period (the
// paper's "minimal area for best delay"). With -map the input is first
// technology-mapped to 4-input LUTs and the result remapped, mirroring the
// paper's experimental flow.
//
// -trace writes the retiming pipeline's spans and counters as Chrome
// trace-event JSON (open in chrome://tracing or https://ui.perfetto.dev) and
// prints an indented text summary to stderr; the file is written even when
// the run fails, so partial runs can be inspected. -timeout cancels the
// retiming after the given duration (e.g. 30s, 2m).
//
// SIGINT/SIGTERM cancel the run context: a Ctrl-C during a long minarea flow
// aborts the solve cleanly (no partial netlist is written) and exits with
// code 4. The MCRETIMING_FAILPOINTS environment variable arms fault-injection
// sites (internal/failpoint) for chaos testing.
//
// Exit codes: 0 success, 2 target period infeasible, 3 malformed input,
// 4 resource budget, timeout, or interrupt, 1 any other failure.
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

// exitCode classifies err by the package's error taxonomy so scripts can
// distinguish "your circuit is infeasible" from "your file is broken" from
// "give it more budget" without parsing messages.
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
	// Any unexpected panic still exits with a clean one-line error: the
	// driver contract is "non-zero status, no stack trace" on bad input.
	defer func() {
		if r := recover(); r != nil {
			fatal(fmt.Errorf("internal error: %v", r))
		}
	}()
	minperiod := flag.Bool("minperiod", false, "minimize the clock period only")
	periodNS := flag.Float64("period", 0, "minimize area at this period (ns) instead of the minimum")
	outFile := flag.String("o", "", "write the retimed netlist here (default: stdout)")
	doMap := flag.Bool("map", false, "map to 4-LUTs before retiming and remap after")
	doVerify := flag.Bool("verify", false, "check sequential equivalence by random simulation")
	doCritical := flag.Bool("critical", false, "print the retimed circuit's critical path")
	slackN := flag.Int("slack", 0, "print the N worst endpoint slacks of the retimed circuit")
	blifOut := flag.Bool("blif", false, "write the result as BLIF instead of the textual netlist format")
	showClasses := flag.Bool("classes", false, "print the register class table")
	traceFile := flag.String("trace", "", "write Chrome trace-event JSON of the retiming pipeline here")
	timeout := flag.Duration("timeout", 0, "abort retiming after this long (e.g. 30s; 0 = no limit)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcretime [flags] in.{mcn,blif}")
		flag.PrintDefaults()
		fmt.Fprintln(os.Stderr, `
exit codes:
  0  success
  2  target period infeasible
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

	work := c
	if *doMap {
		if work, err = mcretiming.MapXC4000(mcretiming.DecomposeSyncResets(c.Clone())); err != nil {
			fatal(err)
		}
	}

	opts := mcretiming.Options{Objective: mcretiming.MinAreaAtMinPeriod}
	switch {
	case *minperiod:
		opts.Objective = mcretiming.MinPeriod
	case *periodNS > 0:
		opts.Objective = mcretiming.MinAreaAtPeriod
		opts.TargetPeriod = int64(*periodNS * 1000)
	}

	var rec *mcretiming.TraceRecorder
	if *traceFile != "" {
		rec = mcretiming.NewTraceRecorder()
		opts.Trace = rec
	}
	// SIGINT/SIGTERM cancel the run context so the solve aborts cleanly and
	// the process exits with the documented code instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	out, rep, err := mcretiming.RetimeCtx(ctx, work, opts)
	if rec != nil {
		// Write the trace even on failure — a timed-out run's spans show
		// where the time went.
		if werr := writeTrace(*traceFile, rec); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fatal(fmt.Errorf("timed out after %v: %w", *timeout, err))
		}
		if errors.Is(err, context.Canceled) {
			fatal(fmt.Errorf("interrupted: %w", err))
		}
		fatal(err)
	}
	if *doMap {
		if out, err = mcretiming.MapXC4000(out); err != nil {
			fatal(err)
		}
	}

	fmt.Fprintf(os.Stderr, "%s: %d classes, steps %d/%d, period %.1f -> %.1f ns, FF %d -> %d\n",
		c.Name, rep.NumClasses, rep.StepsMoved, rep.StepsPossible,
		float64(rep.PeriodBefore)/1000, float64(rep.PeriodAfter)/1000,
		rep.RegsBefore, rep.RegsAfter)
	if *showClasses {
		for _, ci := range rep.ClassTable {
			fmt.Fprintf(os.Stderr, "  %s\n", ci)
		}
	}
	if rep.JustifyLocal+rep.JustifyGlobal > 0 {
		fmt.Fprintf(os.Stderr, "justifications: %d local, %d global, %d re-retimings\n",
			rep.JustifyLocal, rep.JustifyGlobal, rep.Retries)
	}
	if rec != nil {
		fmt.Fprintf(os.Stderr, "trace: wrote %s; pass summary:\n", *traceFile)
		if err := rec.WriteText(os.Stderr); err != nil {
			fatal(err)
		}
	}

	if *doVerify {
		skip := work.NumRegs() + 2
		res, err := mcretiming.Equivalent(work, out, mcretiming.Stimulus{
			Cycles: skip + 64, Seqs: 8, Skip: skip, Seed: 1,
		})
		if err != nil {
			fatal(fmt.Errorf("equivalence check FAILED: %w", err))
		}
		fmt.Fprintf(os.Stderr, "equivalence: ok (%d known samples compared)\n", res.Compared)
	}

	if *doCritical {
		if err := mcretiming.PrintCriticalPath(os.Stderr, out); err != nil {
			fatal(err)
		}
	}
	if *slackN > 0 {
		if err := mcretiming.PrintSlackReport(os.Stderr, out, 0, *slackN); err != nil {
			fatal(err)
		}
	}

	w := os.Stdout
	if *outFile != "" {
		if w, err = os.Create(*outFile); err != nil {
			fatal(err)
		}
		defer w.Close()
	}
	write := mcretiming.WriteNetlist
	if *blifOut {
		write = mcretiming.WriteBLIF
	}
	if err := write(w, out); err != nil {
		fatal(err)
	}
}

// writeTrace dumps the recorder as Chrome trace-event JSON.
func writeTrace(path string, rec *mcretiming.TraceRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcretime:", err)
	os.Exit(exitCode(err))
}
