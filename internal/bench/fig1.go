package bench

import (
	"context"
	"fmt"
	"io"

	"mcretiming/internal/core"
	"mcretiming/internal/netlist"
	"mcretiming/internal/xc4000"
)

// Fig1Result compares the paper's Fig. 1 alternatives on the two-register
// load-enable circuit: multiple-class retiming moves the layer as-is
// (circuit b), while the conventional flow decomposes the enables into
// feedback multiplexers first (circuit c) and pays two extra registers and
// two multiplexers after the forward move (circuit d).
type Fig1Result struct {
	OrigFF, OrigLUT int
	OrigDelay       int64
	MCFF, MCLUT     int
	MCDelay         int64
	BaseFF, BaseLUT int
	BaseDelay       int64
}

// fig1Circuit builds Fig. 1a) plus a slow downstream gate so that minperiod
// retiming wants the register layer moved forward across the AND.
func fig1Circuit() *netlist.Circuit {
	c := netlist.New("fig1")
	i1 := c.AddInput("i1")
	i2 := c.AddInput("i2")
	en := c.AddInput("en")
	clk := c.AddInput("clk")
	r1, q1 := c.AddReg("r1", i1, clk)
	r2, q2 := c.AddReg("r2", i2, clk)
	c.Regs[r1].EN = en
	c.Regs[r2].EN = en
	_, g := c.AddGate("g", netlist.And, []netlist.SignalID{q1, q2}, xc4000.DelayLUT+xc4000.DelayRoute)
	// Downstream depth that dominates the clock period.
	sig := g
	for i := 0; i < 3; i++ {
		_, sig = c.AddGate("", netlist.Xor, []netlist.SignalID{sig, i1, i2}, xc4000.DelayLUT+xc4000.DelayRoute)
	}
	c.MarkOutput(sig)
	return c
}

// RunFig1 runs both flows of Fig. 1 under ctx and returns the comparison.
func RunFig1(ctx context.Context) (*Fig1Result, error) {
	res := &Fig1Result{}

	orig := fig1Circuit()
	st, err := xc4000.Report(orig)
	if err != nil {
		return nil, err
	}
	res.OrigFF, res.OrigLUT, res.OrigDelay = st.FFs, st.LUTs+countSimple(orig), st.Delay

	// Multiple-class flow: retime the generic registers directly.
	mc, _, err := core.RetimeCtx(ctx, orig, core.Options{Objective: core.MinAreaAtMinPeriod})
	if err != nil {
		return nil, err
	}
	mcMapped, err := xc4000.Map(mc)
	if err != nil {
		return nil, err
	}
	stMC, err := xc4000.Report(mcMapped)
	if err != nil {
		return nil, err
	}
	res.MCFF, res.MCLUT, res.MCDelay = stMC.FFs, stMC.LUTs, stMC.Delay

	// Conventional flow: decompose the enables, then basic retiming.
	base := xc4000.DecomposeEnables(fig1Circuit())
	baseRetimed, _, err := core.RetimeCtx(ctx, base, core.Options{Objective: core.MinAreaAtMinPeriod})
	if err != nil {
		return nil, err
	}
	baseMapped, err := xc4000.Map(baseRetimed)
	if err != nil {
		return nil, err
	}
	stBase, err := xc4000.Report(baseMapped)
	if err != nil {
		return nil, err
	}
	res.BaseFF, res.BaseLUT, res.BaseDelay = stBase.FFs, stBase.LUTs, stBase.Delay
	return res, nil
}

// countSimple counts unmapped logic gates (the pre-map Fig. 1 circuit).
func countSimple(c *netlist.Circuit) int {
	n := 0
	c.LiveGates(func(g *netlist.Gate) {
		if g.Type != netlist.Lut && g.Type != netlist.Const0 && g.Type != netlist.Const1 {
			n++
		}
	})
	return n
}

// PrintFig1 writes the Fig. 1 comparison.
func PrintFig1(w io.Writer, r *Fig1Result) {
	fmt.Fprintln(w, "Fig. 1: retiming registers with load enables")
	fmt.Fprintf(w, "%-28s %4s %5s %8s\n", "", "#FF", "#LUT", "Delay")
	fmt.Fprintf(w, "%-28s %4d %5d %8.1f\n", "a) original", r.OrigFF, r.OrigLUT, ns(r.OrigDelay))
	fmt.Fprintf(w, "%-28s %4d %5d %8.1f\n", "b) mc-retiming", r.MCFF, r.MCLUT, ns(r.MCDelay))
	fmt.Fprintf(w, "%-28s %4d %5d %8.1f\n", "d) decompose EN + retiming", r.BaseFF, r.BaseLUT, ns(r.BaseDelay))
	fmt.Fprintf(w, "mc-retiming saves %d registers and %d LUTs at equal-or-better delay\n",
		r.BaseFF-r.MCFF, r.BaseLUT-r.MCLUT)
}
