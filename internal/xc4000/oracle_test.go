package xc4000

import (
	"fmt"

	"mcretiming/internal/netlist"
)

// This file keeps the mapper as it was before Map moved to flat per-signal
// tables: cones in a Go map, a compose that indexes leaves through a map and
// evaluates the gate per minterm, a full fanout index, and materialization
// through a map-backed visiting set. It is the reference TestMapMatchesOracle
// and FuzzMapMatchesOracle hold Map to, byte for byte and error for error.

// MapOracle exports mapOracle to the package's external tests, which also
// retime (internal/core imports this package).
var MapOracle = mapOracle

// oracleCone is a candidate LUT: a function over at most MaxLutIn leaf signals.
type oracleCone struct {
	leaves []netlist.SignalID
	tt     uint16
}

// mapOracle technology-maps the combinational logic of c into 4-input LUTs (carry
// cells pass through onto the hardwired chain) and returns a fresh circuit.
// Registers, ports and signal names survive; buffers and constants are
// absorbed where possible.
//
// The mapper is a greedy cone packer: gates are visited in topological
// order; a gate absorbs a fanin gate's cone when the fanin has a single
// reader and the merged support still fits a LUT. It also serves as the
// paper's "remap" command — Lut gates re-enter packing like any other gate,
// so mapping a retimed mapped netlist merges mergeable LUT pairs.
func mapOracle(c *netlist.Circuit) (*netlist.Circuit, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("xc4000: %w", err)
	}
	c = splitWideOracle(c)
	order, err := c.TopoGates()
	if err != nil {
		return nil, err
	}
	fan := buildFanoutsOracle(c)
	readers := func(sig netlist.SignalID) int {
		n := len(fan.GateReaders[sig]) + len(fan.RegD[sig]) + len(fan.RegCtrl[sig])
		if fan.IsPO[sig] {
			n++
		}
		return n
	}

	// Phase 1: best cone per gate output.
	cones := make(map[netlist.SignalID]oracleCone)
	for _, gid := range order {
		g := &c.Gates[gid]
		switch g.Type {
		case netlist.Carry, netlist.Const0, netlist.Const1:
			continue
		case netlist.Buf:
			// Forward the driver's cone (or the raw signal).
			if cn, ok := cones[g.In[0]]; ok {
				cones[g.Out] = cn
			} else {
				cones[g.Out] = oracleCone{leaves: []netlist.SignalID{g.In[0]}, tt: 0b10}
			}
			continue
		}
		pins := make([]oracleCone, len(g.In))
		for i, in := range g.In {
			cn, ok := cones[in]
			if ok && readers(in) == 1 {
				pins[i] = cn // absorb single-reader fanin cone
			} else {
				pins[i] = oracleCone{leaves: []netlist.SignalID{in}, tt: 0b10}
			}
		}
		merged, ok := composeOracle(g, pins)
		if !ok {
			// Fall back: every pin is a leaf.
			for i, in := range g.In {
				pins[i] = oracleCone{leaves: []netlist.SignalID{in}, tt: 0b10}
			}
			merged, ok = composeOracle(g, pins)
			if !ok {
				return nil, fmt.Errorf("xc4000: gate %s does not fit a LUT after splitting", g.Name)
			}
		}
		cones[g.Out] = merged
	}

	return materializeOracle(c, fan, cones)
}

// composeOracle builds the cone computing g over the given pin cones, failing if
// the union support exceeds MaxLutIn.
func composeOracle(g *netlist.Gate, pins []oracleCone) (oracleCone, bool) {
	var leaves []netlist.SignalID
	idx := make(map[netlist.SignalID]int)
	for _, p := range pins {
		for _, l := range p.leaves {
			if _, ok := idx[l]; !ok {
				if len(leaves) == MaxLutIn {
					return oracleCone{}, false
				}
				idx[l] = len(leaves)
				leaves = append(leaves, l)
			}
		}
	}
	var tt uint16
	pinVals := make([]bool, len(pins))
	for m := 0; m < 1<<len(leaves); m++ {
		for i, p := range pins {
			// Evaluate pin cone under leaf assignment m.
			pat := 0
			for j, l := range p.leaves {
				if m>>idx[l]&1 == 1 {
					pat |= 1 << j
				}
			}
			pinVals[i] = p.tt>>pat&1 == 1
		}
		if g.Eval(pinVals) {
			tt |= 1 << m
		}
	}
	return oracleCone{leaves: leaves, tt: tt}, true
}

// materializeOracle rebuilds the circuit with LUTs for every cone whose output is
// actually consumed, rewiring registers, POs and control pins.
func materializeOracle(c *netlist.Circuit, fan *oracleFanouts, cones map[netlist.SignalID]oracleCone) (*netlist.Circuit, error) {
	out := netlist.New(c.Name)
	sigMap := make([]netlist.SignalID, len(c.Signals))
	for i := range sigMap {
		sigMap[i] = netlist.NoSignal
	}
	for _, pi := range c.PIs {
		sigMap[pi] = out.AddInput(c.Signals[pi].Name)
	}

	// Pre-create register Q signals so cone leaves resolve.
	type regStub struct {
		oldID netlist.RegID
		newQ  netlist.SignalID
	}
	var stubs []regStub
	c.LiveRegs(func(r *netlist.Reg) {
		q := out.AddSignal(c.Signals[r.Q].Name)
		sigMap[r.Q] = q
		stubs = append(stubs, regStub{oldID: r.ID, newQ: q})
	})

	// need(sig) materializes the driver of sig in the new circuit.
	var need func(sig netlist.SignalID) (netlist.SignalID, error)
	visiting := make(map[netlist.SignalID]bool)
	need = func(sig netlist.SignalID) (netlist.SignalID, error) {
		if sigMap[sig] != netlist.NoSignal {
			return sigMap[sig], nil
		}
		if visiting[sig] {
			return netlist.NoSignal, fmt.Errorf("xc4000: combinational loop at %s", c.SignalName(sig))
		}
		visiting[sig] = true
		defer delete(visiting, sig)

		d := c.Signals[sig].Driver
		if d.Kind != netlist.DriverGate {
			return netlist.NoSignal, fmt.Errorf("xc4000: unmapped signal %s", c.SignalName(sig))
		}
		g := &c.Gates[d.Gate]
		switch g.Type {
		case netlist.Const0:
			sigMap[sig] = out.Const(0)
			return sigMap[sig], nil
		case netlist.Const1:
			sigMap[sig] = out.Const(1)
			return sigMap[sig], nil
		case netlist.Carry:
			in := make([]netlist.SignalID, len(g.In))
			for i, s := range g.In {
				ns, err := need(s)
				if err != nil {
					return netlist.NoSignal, err
				}
				in[i] = ns
			}
			_, o := out.AddGate(g.Name, netlist.Carry, in, DelayCarry)
			sigMap[sig] = o
			return o, nil
		}
		cn, ok := cones[sig]
		if !ok {
			return netlist.NoSignal, fmt.Errorf("xc4000: no cone for %s", c.SignalName(sig))
		}
		// Identity cones (buffers) alias their leaf instead of burning a LUT.
		if len(cn.leaves) == 1 && cn.tt == 0b10 {
			ns, err := need(cn.leaves[0])
			if err != nil {
				return netlist.NoSignal, err
			}
			sigMap[sig] = ns
			return ns, nil
		}
		// Constant cones collapse.
		if cn.tt == 0 {
			sigMap[sig] = out.Const(0)
			return sigMap[sig], nil
		}
		if int(cn.tt) == 1<<(1<<len(cn.leaves))-1 {
			sigMap[sig] = out.Const(1)
			return sigMap[sig], nil
		}
		in := make([]netlist.SignalID, len(cn.leaves))
		for i, l := range cn.leaves {
			ns, err := need(l)
			if err != nil {
				return netlist.NoSignal, err
			}
			in[i] = ns
		}
		_, o := out.AddLut(c.SignalName(sig), in, uint64(cn.tt), DelayLUT+DelayRoute)
		sigMap[sig] = o
		return o, nil
	}

	mapPin := func(sig netlist.SignalID) (netlist.SignalID, error) {
		if sig == netlist.NoSignal {
			return netlist.NoSignal, nil
		}
		return need(sig)
	}

	for _, st := range stubs {
		r := &c.Regs[st.oldID]
		dSig, err := mapPin(r.D)
		if err != nil {
			return nil, err
		}
		clk, err := mapPin(r.Clk)
		if err != nil {
			return nil, err
		}
		nid := out.AddRegTo(r.Name, dSig, st.newQ, clk)
		nr := &out.Regs[nid]
		if nr.EN, err = mapPin(r.EN); err != nil {
			return nil, err
		}
		if nr.SR, err = mapPin(r.SR); err != nil {
			return nil, err
		}
		if nr.AR, err = mapPin(r.AR); err != nil {
			return nil, err
		}
		nr.SRVal, nr.ARVal = r.SRVal, r.ARVal
	}
	for _, po := range c.POs {
		sig, err := need(po)
		if err != nil {
			return nil, err
		}
		out.MarkOutput(sig)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("xc4000: mapped netlist invalid: %w", err)
	}
	return out, nil
}

// splitWideOracle decomposes gates wider than MaxLutIn into balanced trees of
// MaxLutIn-ary gates of the same kind (only And/Or/Nand/Nor/Xor/Xnor can be
// wide). The input circuit is not modified.
func splitWideOracle(c *netlist.Circuit) *netlist.Circuit {
	cp := c.Clone()
	// Note: AddGate below grows cp.Gates and may reallocate it, so the gate
	// is re-indexed (never held by pointer) across appends.
	nOrig := len(cp.Gates)
	for gid := 0; gid < nOrig; gid++ {
		g := cp.Gates[gid]
		if g.Dead || len(g.In) <= MaxLutIn {
			continue
		}
		base, inv := g.Type, false
		switch g.Type {
		case netlist.Nand:
			base, inv = netlist.And, true
		case netlist.Nor:
			base, inv = netlist.Or, true
		case netlist.Xnor:
			base, inv = netlist.Xor, true
		case netlist.And, netlist.Or, netlist.Xor:
		default:
			continue
		}
		in := append([]netlist.SignalID(nil), g.In...)
		for len(in) > MaxLutIn {
			var next []netlist.SignalID
			for i := 0; i < len(in); i += MaxLutIn {
				end := i + MaxLutIn
				if end > len(in) {
					end = len(in)
				}
				if end-i == 1 {
					next = append(next, in[i])
					continue
				}
				_, o := cp.AddGate("", base, in[i:end], g.Delay)
				next = append(next, o)
			}
			in = next
		}
		cp.Gates[gid].In = in
		t := base
		if inv {
			switch base {
			case netlist.And:
				t = netlist.Nand
			case netlist.Or:
				t = netlist.Nor
			case netlist.Xor:
				t = netlist.Xnor
			}
		}
		cp.Gates[gid].Type = t
	}
	return cp
}

// oracleFanouts indexes, for every signal, the gates and registers that
// read it: netlist's fanout index as the mapper used it, kept with its only
// remaining caller.
type oracleFanouts struct {
	// GateReaders[sig] lists gates with sig among their inputs.
	GateReaders [][]netlist.GateID
	// RegD[sig] lists registers whose D pin reads sig.
	RegD [][]netlist.RegID
	// RegCtrl[sig] lists registers with sig on a control pin (clk/EN/SR/AR).
	RegCtrl [][]netlist.RegID
	// IsPO[sig] reports whether sig is a primary output.
	IsPO []bool
}

// buildFanoutsOracle computes the fanout index of c.
func buildFanoutsOracle(c *netlist.Circuit) *oracleFanouts {
	n := len(c.Signals)
	f := &oracleFanouts{
		GateReaders: make([][]netlist.GateID, n),
		RegD:        make([][]netlist.RegID, n),
		RegCtrl:     make([][]netlist.RegID, n),
		IsPO:        make([]bool, n),
	}
	c.LiveGates(func(g *netlist.Gate) {
		for _, in := range g.In {
			f.GateReaders[in] = append(f.GateReaders[in], g.ID)
		}
	})
	c.LiveRegs(func(r *netlist.Reg) {
		f.RegD[r.D] = append(f.RegD[r.D], r.ID)
		for _, ctl := range []netlist.SignalID{r.Clk, r.EN, r.SR, r.AR} {
			if ctl != netlist.NoSignal {
				f.RegCtrl[ctl] = append(f.RegCtrl[ctl], r.ID)
			}
		}
	})
	for _, po := range c.POs {
		f.IsPO[po] = true
	}
	return f
}
