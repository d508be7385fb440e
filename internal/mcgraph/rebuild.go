package mcgraph

import (
	"fmt"

	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/rterr"
)

// Rebuild materializes the mc-graph's current register placement as a new
// netlist: the combinational gates of the original circuit with register
// chains re-created from the edge sequences.
//
// Registers are shared across fanout edges by maximal common prefix: at each
// chain layer, sinks whose next register agrees in (class, s, a) reuse one
// physical register. Registers on frozen control-net edges are preserved
// with their original identities so every class control signal keeps its
// driver.
//
// Registers whose output drives nothing do not appear on any mc-graph edge
// and are therefore dropped — rebuilding doubles as dead-register removal.
func (m *MC) Rebuild(name string) (*netlist.Circuit, error) {
	// Room for as many new registers as the circuit has: a retiming moves
	// registers more than it adds or removes them. Counting the instances on
	// the edges instead would overshoot wherever fanout shares registers,
	// and the returned circuit would carry that room for its lifetime.
	c := m.Ckt.CloneGrow(m.Ckt.NumRegs())
	c.Name = name

	// Registers on frozen edges survive in place.
	keep := make(map[netlist.RegID]bool)
	for i := range m.Edges {
		e := &m.Edges[i]
		if !e.NoMove {
			continue
		}
		for _, inst := range e.Regs {
			if inst.Orig != netlist.NoReg {
				keep[inst.Orig] = true
			}
		}
	}
	c.LiveRegs(func(r *netlist.Reg) {
		if !keep[r.ID] {
			c.RemoveReg(r.ID)
		}
	})

	// chainCache shares registers: one register per (source signal, class,
	// reset values). Pre-seeded with the preserved control-net registers so
	// data edges reuse them when their instance still matches.
	type chainKey struct {
		src  netlist.SignalID
		cls  ClassID
		s, a logic.Bit
	}
	cache := make(map[chainKey]netlist.SignalID)
	for id := range keep {
		r := &c.Regs[id]
		cls := m.classOfReg[id]
		s, a := r.SRVal, r.ARVal
		if !m.Classes[cls].HasSR() {
			s = logic.BX
		}
		if !m.Classes[cls].HasAR() {
			a = logic.BX
		}
		cache[chainKey{src: r.D, cls: cls, s: s, a: a}] = r.Q
	}

	makeChain := func(src netlist.SignalID, regs []RegInst) netlist.SignalID {
		sig := src
		for _, inst := range regs {
			key := chainKey{src: sig, cls: inst.Class, s: inst.S, a: inst.A}
			if q, ok := cache[key]; ok {
				sig = q
				continue
			}
			cls := &m.Classes[inst.Class]
			rid, q := c.AddReg("", sig, cls.Clk)
			r := &c.Regs[rid]
			r.EN = cls.EN
			r.SR = cls.SR
			r.AR = cls.AR
			r.SRVal = inst.S
			r.ARVal = inst.A
			cache[key] = q
			sig = q
		}
		return sig
	}

	for i := range m.Edges {
		e := &m.Edges[i]
		switch e.SinkKind {
		case SinkGateIn:
			sig := makeChain(e.SrcSignal, e.Regs)
			c.Gates[e.SinkGate].In[e.SinkPin] = sig
		case SinkPO:
			sig := makeChain(e.SrcSignal, e.Regs)
			c.POs[e.SinkPO] = sig
		case SinkCtrl, SinkNone:
			// Control nets are frozen (registers preserved above); host and
			// port bookkeeping edges carry nothing.
		}
	}

	if err := c.Validate(); err != nil {
		// A relocation produced a broken circuit: a programming error, not a
		// property of the input.
		return nil, fmt.Errorf("mcgraph: rebuilt netlist invalid: %v: %w", err, rterr.ErrInternal)
	}
	return c, nil
}
