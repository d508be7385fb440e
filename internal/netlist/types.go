// Package netlist models gate-level synchronous circuits whose sequential
// elements are the paper's generic registers (Fig. 2a): D-flip-flops with an
// optional synchronous load-enable EN, an optional synchronous set/clear, and
// an optional asynchronous set/clear.
//
// A Circuit owns three kinds of objects, each addressed by a dense ID:
//
//   - Signal: a named wire with at most one driver,
//   - Gate:   a combinational gate (including K-input LUTs and carry cells),
//   - Reg:    a generic register.
//
// The package provides structural editing, validation, topological ordering
// of the combinational logic, deep cloning, and gate
// evaluation in two- and three-valued logic. Everything downstream — the
// retiming graphs, the simulator, the technology mapper — is built on it.
package netlist

import "mcretiming/internal/logic"

// SignalID identifies a Signal within its Circuit.
type SignalID int32

// GateID identifies a Gate within its Circuit.
type GateID int32

// RegID identifies a Reg within its Circuit.
type RegID int32

// None marks an unconnected optional pin or an absent object.
const (
	NoSignal SignalID = -1
	NoGate   GateID   = -1
	NoReg    RegID    = -1
)

// GateType enumerates the combinational gate kinds.
type GateType uint8

// Gate kinds. Const0/Const1 take no inputs. Lut evaluates a truth table over
// up to MaxLutInputs inputs. Carry is a full-adder carry cell
// (in: a, b, cin; out: carry) used to model FPGA hardwired carry chains.
const (
	Buf GateType = iota
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	Mux // in: sel, a, b; out = sel ? b : a
	Lut // truth table gate, up to MaxLutInputs inputs
	Carry
	Const0
	Const1
	numGateTypes
)

// MaxLutInputs is the widest LUT the Lut gate type supports.
const MaxLutInputs = 6

var gateTypeNames = [numGateTypes]string{
	"buf", "not", "and", "or", "nand", "nor", "xor", "xnor",
	"mux", "lut", "carry", "const0", "const1",
}

// String returns the lower-case mnemonic of t.
func (t GateType) String() string {
	if int(t) < len(gateTypeNames) {
		return gateTypeNames[t]
	}
	return "gate?"
}

// DriverKind says what drives a signal.
type DriverKind uint8

// Driver kinds for a signal.
const (
	DriverNone  DriverKind = iota // undriven (primary inputs are DriverInput)
	DriverInput                   // primary input port
	DriverGate                    // output of a combinational gate
	DriverReg                     // Q output of a register
)

// Driver identifies the unique driver of a signal.
type Driver struct {
	Kind DriverKind
	Gate GateID // valid when Kind == DriverGate
	Reg  RegID  // valid when Kind == DriverReg
}

// Signal is a named wire.
type Signal struct {
	ID     SignalID
	Name   string
	Driver Driver
}

// Gate is a combinational gate instance.
type Gate struct {
	ID    GateID
	Name  string
	Type  GateType
	In    []SignalID
	Out   SignalID
	TT    uint64 // truth table for Lut gates: bit i = output for input pattern i
	Delay int64  // propagation delay in picoseconds
	Dead  bool   // tombstone left by removal; skipped by iteration helpers
}

// Reg is a generic register (paper Fig. 2a).
//
// Pin semantics per clock cycle, in priority order:
//
//	if AR active (level-sensitive):   Q <- ARVal    (asynchronous)
//	else at the clock edge:
//	    if SR active:                 Q <- SRVal    (synchronous set/clear)
//	    else if EN absent or EN=1:    Q <- D        (load)
//	    else:                         Q holds
//
// EN == NoSignal means the register always loads (the generic register's EN
// tied to constant 1). SR/AR == NoSignal mean no synchronous/asynchronous
// control. SRVal/ARVal are the paper's s and a labels and may be BX ("-",
// don't-care) even when the control pin is connected.
type Reg struct {
	ID    RegID
	Name  string
	D, Q  SignalID
	Clk   SignalID
	EN    SignalID
	SR    SignalID
	SRVal logic.Bit
	AR    SignalID
	ARVal logic.Bit
	Dead  bool
}

// HasEN reports whether the register has a real load-enable pin.
func (r *Reg) HasEN() bool { return r.EN != NoSignal }

// HasSR reports whether the register has a synchronous set/clear pin.
func (r *Reg) HasSR() bool { return r.SR != NoSignal }

// HasAR reports whether the register has an asynchronous set/clear pin.
func (r *Reg) HasAR() bool { return r.AR != NoSignal }
