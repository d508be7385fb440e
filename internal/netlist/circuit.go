package netlist

import "mcretiming/internal/logic"

// Circuit is a mutable gate-level netlist.
//
// IDs are dense indices into the backing slices. Removing a gate or register
// leaves a tombstone (Dead=true) so existing IDs stay valid; Compact is not
// provided — passes that rebuild netlists construct fresh Circuits instead.
type Circuit struct {
	Name string

	Signals []Signal
	Gates   []Gate
	Regs    []Reg

	PIs []SignalID // primary input ports (in declaration order)
	POs []SignalID // primary output ports

	const0 SignalID // lazily created constant-0 signal
	const1 SignalID // lazily created constant-1 signal
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, const0: NoSignal, const1: NoSignal}
}

// AddSignal creates a new undriven signal and returns its ID. An empty name
// is replaced by a generated one.
func (c *Circuit) AddSignal(name string) SignalID {
	id := SignalID(len(c.Signals))
	if name == "" {
		name = generatedName('n', int(id))
	}
	c.Signals = append(c.Signals, Signal{ID: id, Name: name})
	return id
}

// AddInput creates a new signal driven as a primary input.
func (c *Circuit) AddInput(name string) SignalID {
	id := c.AddSignal(name)
	c.Signals[id].Driver = Driver{Kind: DriverInput}
	c.PIs = append(c.PIs, id)
	return id
}

// MarkOutput declares sig as a primary output port.
func (c *Circuit) MarkOutput(sig SignalID) {
	c.POs = append(c.POs, sig)
}

// AddGate creates a gate driving a fresh output signal and returns the gate
// ID and the output signal ID. Delay is in picoseconds.
func (c *Circuit) AddGate(name string, t GateType, in []SignalID, delay int64) (GateID, SignalID) {
	out := c.AddSignal("")
	g := c.AddGateTo(name, t, in, out, delay)
	return g, out
}

// AddGateTo creates a gate driving an existing (undriven) signal.
func (c *Circuit) AddGateTo(name string, t GateType, in []SignalID, out SignalID, delay int64) GateID {
	id := GateID(len(c.Gates))
	if name == "" {
		name = generatedName('g', int(id))
	}
	c.Gates = append(c.Gates, Gate{
		ID: id, Name: name, Type: t, In: append([]SignalID(nil), in...),
		Out: out, Delay: delay,
	})
	c.Signals[out].Driver = Driver{Kind: DriverGate, Gate: id}
	return id
}

// AddLut creates a LUT gate with the given truth table driving a fresh signal.
func (c *Circuit) AddLut(name string, in []SignalID, tt uint64, delay int64) (GateID, SignalID) {
	g, out := c.AddGate(name, Lut, in, delay)
	c.Gates[g].TT = tt
	return g, out
}

// AddReg creates a register with the given pins. Optional pins may be
// NoSignal. The Q signal is freshly created and returned with the register ID.
func (c *Circuit) AddReg(name string, d, clk SignalID) (RegID, SignalID) {
	q := c.AddSignal("")
	r := c.AddRegTo(name, d, q, clk)
	return r, q
}

// AddRegTo creates a register whose Q drives an existing (undriven) signal.
func (c *Circuit) AddRegTo(name string, d, q, clk SignalID) RegID {
	id := RegID(len(c.Regs))
	if name == "" {
		name = generatedName('r', int(id))
	}
	c.Regs = append(c.Regs, Reg{
		ID: id, Name: name, D: d, Q: q, Clk: clk,
		EN: NoSignal, SR: NoSignal, AR: NoSignal,
		SRVal: logic.BX, ARVal: logic.BX,
	})
	c.Signals[q].Driver = Driver{Kind: DriverReg, Reg: id}
	return id
}

// RemoveGate tombstones a gate and detaches its output signal's driver.
func (c *Circuit) RemoveGate(id GateID) {
	g := &c.Gates[id]
	if g.Dead {
		return
	}
	g.Dead = true
	c.Signals[g.Out].Driver = Driver{}
}

// RemoveReg tombstones a register and detaches its Q signal's driver.
func (c *Circuit) RemoveReg(id RegID) {
	r := &c.Regs[id]
	if r.Dead {
		return
	}
	r.Dead = true
	c.Signals[r.Q].Driver = Driver{}
}

// Const returns the constant-0 or constant-1 signal, creating the backing
// Const gate on first use. Const(BX) refines the don't-care to 0, which is
// always a sound choice for a value nothing observes.
func (c *Circuit) Const(b logic.Bit) SignalID {
	if b == logic.B1 {
		if c.const1 == NoSignal {
			_, c.const1 = c.AddGate("const1", Const1, nil, 0)
		}
		return c.const1
	}
	if c.const0 == NoSignal {
		_, c.const0 = c.AddGate("const0", Const0, nil, 0)
	}
	return c.const0
}

// IsConst reports whether sig is driven by a constant gate, and its value.
func (c *Circuit) IsConst(sig SignalID) (logic.Bit, bool) {
	if sig == NoSignal {
		return logic.BX, false
	}
	d := c.Signals[sig].Driver
	if d.Kind != DriverGate {
		return logic.BX, false
	}
	switch c.Gates[d.Gate].Type {
	case Const0:
		return logic.B0, true
	case Const1:
		return logic.B1, true
	}
	return logic.BX, false
}

// LiveGates calls fn for every non-dead gate.
func (c *Circuit) LiveGates(fn func(*Gate)) {
	for i := range c.Gates {
		if !c.Gates[i].Dead {
			fn(&c.Gates[i])
		}
	}
}

// LiveRegs calls fn for every non-dead register.
func (c *Circuit) LiveRegs(fn func(*Reg)) {
	for i := range c.Regs {
		if !c.Regs[i].Dead {
			fn(&c.Regs[i])
		}
	}
}

// NumGates returns the number of live gates (excluding constants).
func (c *Circuit) NumGates() int {
	n := 0
	c.LiveGates(func(g *Gate) {
		if g.Type != Const0 && g.Type != Const1 {
			n++
		}
	})
	return n
}

// NumLUTs returns the number of live Lut gates.
func (c *Circuit) NumLUTs() int {
	n := 0
	c.LiveGates(func(g *Gate) {
		if g.Type == Lut {
			n++
		}
	})
	return n
}

// NumRegs returns the number of live registers.
func (c *Circuit) NumRegs() int {
	n := 0
	c.LiveRegs(func(*Reg) { n++ })
	return n
}

// SignalName returns the name of sig, or "<none>" for NoSignal.
func (c *Circuit) SignalName(sig SignalID) string {
	if sig == NoSignal {
		return "<none>"
	}
	return c.Signals[sig].Name
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit { return c.CloneGrow(0) }

// CloneGrow is Clone with room for regs more registers, and their output
// signals, before AddReg grows the copy's tables.
func (c *Circuit) CloneGrow(regs int) *Circuit {
	cp := &Circuit{
		Name:    c.Name,
		Signals: append(make([]Signal, 0, len(c.Signals)+regs), c.Signals...),
		Gates:   make([]Gate, len(c.Gates)),
		Regs:    append(make([]Reg, 0, len(c.Regs)+regs), c.Regs...),
		PIs:     append([]SignalID(nil), c.PIs...),
		POs:     append([]SignalID(nil), c.POs...),
		const0:  c.const0,
		const1:  c.const1,
	}
	// Every gate's inputs get a window of one array, capacity clipped so
	// that growing one gate's inputs never spills into the next gate's.
	pins := 0
	for i := range c.Gates {
		pins += len(c.Gates[i].In)
	}
	in := make([]SignalID, 0, pins)
	for i := range c.Gates {
		cp.Gates[i] = c.Gates[i]
		start := len(in)
		in = append(in, c.Gates[i].In...)
		cp.Gates[i].In = in[start:len(in):len(in)]
	}
	return cp
}
