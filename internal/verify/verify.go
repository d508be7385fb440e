// Package verify checks sequential equivalence of an original and a retimed
// circuit by three-valued random simulation.
//
// Retiming with justified reset states preserves I/O behaviour exactly once
// the circuit has been initialized; from an unknown power-up state the
// retimed circuit is a "sufficiently old replacement" (Leiserson–Saxe): its
// outputs agree with the original's wherever the original's are determined,
// after an initialization prefix. The harness therefore drives both
// circuits with identical random input sequences and requires, from a
// caller-chosen cycle onward, that whenever both outputs are known they are
// equal. It reports how many known-vs-known comparisons were made so tests
// can assert the check had teeth, and how many samples the second circuit
// left X where the first was known, so a test can also require that a reset
// pulse initializes the retimed circuit wherever it initializes the original.
package verify

import (
	"fmt"
	"math/rand"

	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/sim"
)

// Stimulus configures an equivalence run.
type Stimulus struct {
	Cycles int // cycles per sequence
	Seqs   int // independent random sequences
	Skip   int // compare outputs from this cycle on (initialization prefix)
	Seed   int64
	// Bias gives per-input probabilities of driving 1, keyed by PI name
	// (e.g. drive an enable high most of the time, a reset low after the
	// first cycles). Unlisted inputs are fair coins.
	Bias map[string]float64
	// ResetPulse lists PI names driven 1 for the first two cycles of every
	// sequence and 0 afterwards — the usual shape of a reset pulse.
	ResetPulse []string
}

// Result summarizes an equivalence run.
type Result struct {
	Compared int // output samples where both circuits were known
	Total    int // output samples examined
	NewX     int // output samples known in the first circuit but X in the second
}

// Equivalent simulates a and b under identical stimuli and returns an error
// on the first known-vs-known output mismatch. The circuits must have
// matching primary input and output names (order-insensitive for inputs).
func Equivalent(a, b *netlist.Circuit, st Stimulus) (*Result, error) {
	if st.Cycles == 0 {
		st.Cycles = 64
	}
	if st.Seqs == 0 {
		st.Seqs = 8
	}
	mapB, err := matchPIs(a, b)
	if err != nil {
		return nil, err
	}
	if len(a.POs) != len(b.POs) {
		return nil, fmt.Errorf("verify: %d vs %d primary outputs", len(a.POs), len(b.POs))
	}
	pulse := make(map[string]bool)
	for _, name := range st.ResetPulse {
		pulse[name] = true
	}

	rng := rand.New(rand.NewSource(st.Seed))
	res := &Result{}
	for seq := 0; seq < st.Seqs; seq++ {
		simA, err := sim.New(a)
		if err != nil {
			return nil, err
		}
		simB, err := sim.New(b)
		if err != nil {
			return nil, err
		}
		piA := make([]logic.Bit, len(a.PIs))
		piB := make([]logic.Bit, len(b.PIs))
		for cyc := 0; cyc < st.Cycles; cyc++ {
			for i, pi := range a.PIs {
				name := a.Signals[pi].Name
				var v logic.Bit
				switch {
				case pulse[name]:
					v = logic.FromBool(cyc < 2)
				default:
					p := 0.5
					if bp, ok := st.Bias[name]; ok {
						p = bp
					}
					v = logic.FromBool(rng.Float64() < p)
				}
				piA[i] = v
				piB[mapB[i]] = v
			}
			simA.Eval(piA)
			simB.Eval(piB)
			if cyc >= st.Skip {
				outA, outB := simA.Outputs(), simB.Outputs()
				for k := range outA {
					res.Total++
					if outA[k].Known() && !outB[k].Known() {
						res.NewX++
					}
					if outA[k].Known() && outB[k].Known() {
						res.Compared++
						if outA[k] != outB[k] {
							return res, fmt.Errorf(
								"verify: seq %d cycle %d: output %s = %v in %s but %v in %s",
								seq, cyc, a.SignalName(a.POs[k]), outA[k], a.Name, outB[k], b.Name)
						}
					}
				}
			}
			simA.Step()
			simB.Step()
		}
	}
	return res, nil
}

// matchPIs maps a's PI indices onto b's by name.
func matchPIs(a, b *netlist.Circuit) ([]int, error) {
	byName := make(map[string]int, len(b.PIs))
	for i, pi := range b.PIs {
		byName[b.Signals[pi].Name] = i
	}
	out := make([]int, len(a.PIs))
	for i, pi := range a.PIs {
		name := a.Signals[pi].Name
		j, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("verify: input %q missing in %s", name, b.Name)
		}
		out[i] = j
	}
	if len(a.PIs) != len(b.PIs) {
		return nil, fmt.Errorf("verify: %d vs %d primary inputs", len(a.PIs), len(b.PIs))
	}
	return out, nil
}
