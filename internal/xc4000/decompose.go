package xc4000

import (
	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
)

// DecomposeSyncResets rewrites every register's synchronous set/clear into
// logic in front of the D pin (Fig. 1c style): the XC4000E flip-flop has no
// synchronous set/clear, so the paper's flow decomposes those inputs before
// mapping. D' = rst ? value : D, built as a Mux. The reset wins over a low
// load enable (netlist.Reg), so a register with an enable also gets
// EN' = EN ∨ rst, built as an Or. An undefined reset value decomposes to 0.
// The input circuit is modified in place and returned.
func DecomposeSyncResets(c *netlist.Circuit) *netlist.Circuit {
	for i := range c.Regs {
		r := &c.Regs[i]
		if r.Dead || !r.HasSR() {
			continue
		}
		v := r.SRVal
		if v == logic.BX {
			v = logic.B0
		}
		_, nd := c.AddGate("", netlist.Mux,
			[]netlist.SignalID{r.SR, r.D, c.Const(v)}, DelayLUT+DelayRoute)
		r.D = nd
		if r.HasEN() {
			_, r.EN = c.AddGate("", netlist.Or,
				[]netlist.SignalID{r.EN, r.SR}, DelayLUT+DelayRoute)
		}
		r.SR = netlist.NoSignal
		r.SRVal = logic.BX
	}
	return c
}

// DecomposeEnables rewrites every register's load enable into a feedback
// multiplexer: D' = en ? D : Q (Fig. 1c / the Table 3 baseline, where
// enables are decomposed before retiming). The input circuit is modified in
// place and returned.
func DecomposeEnables(c *netlist.Circuit) *netlist.Circuit {
	for i := range c.Regs {
		r := &c.Regs[i]
		if r.Dead || !r.HasEN() {
			continue
		}
		_, nd := c.AddGate("", netlist.Mux,
			[]netlist.SignalID{r.EN, r.Q, r.D}, DelayLUT+DelayRoute)
		r.D = nd
		r.EN = netlist.NoSignal
	}
	return c
}

// Stats summarizes a mapped circuit the way the paper's tables do.
type Stats struct {
	FFs   int
	LUTs  int
	Carry int
	Delay int64 // maximum combinational delay, ps
	HasEN bool
	HasAR bool
}

// Report computes table-style statistics for a circuit.
func Report(c *netlist.Circuit) (Stats, error) {
	st := Stats{FFs: c.NumRegs(), LUTs: c.NumLUTs()}
	c.LiveGates(func(g *netlist.Gate) {
		if g.Type == netlist.Carry {
			st.Carry++
		}
	})
	c.LiveRegs(func(r *netlist.Reg) {
		if r.HasEN() {
			st.HasEN = true
		}
		if r.HasAR() {
			st.HasAR = true
		}
	})
	var err error
	st.Delay, err = Period(c)
	return st, err
}
