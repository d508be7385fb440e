package netlist

import (
	"fmt"

	"mcretiming/internal/logic"
	"mcretiming/internal/rterr"
)

// Eval computes the two-valued output of gate g given its input values,
// which must be in the same order as g.In. Arity mismatches and unknown
// gate types degrade to false: Circuit.Validate enforces well-formedness
// upstream, so these paths are unreachable for validated circuits, and a
// defensive constant beats crashing mid-pass.
func (g *Gate) Eval(in []bool) bool {
	if len(in) != len(g.In) {
		return false
	}
	switch g.Type {
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And:
		for _, v := range in {
			if !v {
				return false
			}
		}
		return true
	case Or:
		for _, v := range in {
			if v {
				return true
			}
		}
		return false
	case Nand:
		for _, v := range in {
			if !v {
				return true
			}
		}
		return false
	case Nor:
		for _, v := range in {
			if v {
				return false
			}
		}
		return true
	case Xor:
		out := false
		for _, v := range in {
			out = out != v
		}
		return out
	case Xnor:
		out := true
		for _, v := range in {
			out = out != v
		}
		return out
	case Mux:
		if in[0] {
			return in[2]
		}
		return in[1]
	case Lut:
		idx := 0
		for i, v := range in {
			if v {
				idx |= 1 << i
			}
		}
		return g.TT>>idx&1 == 1
	case Carry:
		// Majority(a, b, cin): the carry-out of a full adder.
		n := 0
		for _, v := range in {
			if v {
				n++
			}
		}
		return n >= 2
	case Const0:
		return false
	case Const1:
		return true
	}
	return false
}

// Eval3 computes the three-valued output of gate g given ternary inputs.
// The result is X only when the known inputs do not determine the output.
// Arity mismatches and unknown gate types degrade to X (see Eval).
func (g *Gate) Eval3(in []logic.Bit) logic.Bit {
	if len(in) != len(g.In) {
		return logic.BX
	}
	switch g.Type {
	case Buf:
		return in[0]
	case Not:
		return logic.Not(in[0])
	case And:
		return logic.And(in...)
	case Or:
		return logic.Or(in...)
	case Nand:
		return logic.Not(logic.And(in...))
	case Nor:
		return logic.Not(logic.Or(in...))
	case Xor:
		return logic.Xor(in...)
	case Xnor:
		return logic.Not(logic.Xor(in...))
	case Mux:
		return logic.Mux(in[0], in[1], in[2])
	case Lut, Carry:
		// Enumerate the X inputs; the output is known iff all completions
		// agree. With at most MaxLutInputs inputs this is at most 2^6 cases.
		var unknown []int
		bin := make([]bool, len(in))
		for i, v := range in {
			switch v {
			case logic.B1:
				bin[i] = true
			case logic.BX:
				unknown = append(unknown, i)
			}
		}
		first := logic.BX
		for m := 0; m < 1<<len(unknown); m++ {
			for j, idx := range unknown {
				bin[idx] = m>>j&1 == 1
			}
			v := logic.FromBool(g.Eval(bin))
			if first == logic.BX {
				first = v
			} else if first != v {
				return logic.BX
			}
		}
		return first
	case Const0:
		return logic.B0
	case Const1:
		return logic.B1
	}
	return logic.BX
}

// TruthTable returns the truth table of gate g as a bitmask over its input
// patterns (bit i = output for pattern i, input 0 being the LSB). Gates
// wider than MaxLutInputs have no 64-bit table; the error wraps
// rterr.ErrMalformedInput since such gates reach here only through inputs
// the LUT-oriented paths cannot represent.
func (g *Gate) TruthTable() (uint64, error) {
	n := len(g.In)
	if n > MaxLutInputs {
		return 0, fmt.Errorf("netlist: gate %s has %d inputs, truth table supports at most %d: %w",
			g.Name, n, MaxLutInputs, rterr.ErrMalformedInput)
	}
	if g.Type == Lut {
		mask := uint64(1)<<(1<<n) - 1
		return g.TT & mask, nil
	}
	var tt uint64
	var buf [MaxLutInputs]bool
	in := buf[:n]
	for m := 0; m < 1<<n; m++ {
		for i := range in {
			in[i] = m>>i&1 == 1
		}
		if g.Eval(in) {
			tt |= 1 << m
		}
	}
	return tt, nil
}
