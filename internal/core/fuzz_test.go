package core

import (
	"math/rand"
	"testing"

	"mcretiming/internal/bmc"
	"mcretiming/internal/gen"
	"mcretiming/internal/verify"
)

// The central correctness property of the whole system: any circuit the
// generator produces, retimed under any objective, must remain sequentially
// equivalent to the original.
func TestRandomCircuitsRetimeEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	objectives := []Objective{MinPeriod, MinAreaAtMinPeriod}
	bias := map[string]float64{"en1": 0.8, "en2": 0.7, "rst": 0.2, "arst": 0.15}
	iters := 60
	if testing.Short() {
		iters = 12
	}
	for iter := 0; iter < iters; iter++ {
		c := gen.Random(rng.Int63(), 25+rng.Intn(50))
		if err := c.Validate(); err != nil {
			t.Fatalf("iter %d: generator bug: %v", iter, err)
		}
		if c.NumRegs() == 0 {
			continue
		}
		obj := objectives[iter%len(objectives)]
		opts := Options{Objective: obj}
		if iter%3 == 0 {
			opts.Budgets.BDDNodes = 1 // every global justification escalates to SAT
		}
		out, rep, err := Retime(c, opts)
		if err != nil {
			t.Fatalf("iter %d (%s): %v", iter, c.Name, err)
		}
		if rep.PeriodAfter > rep.PeriodBefore {
			t.Errorf("iter %d: period worsened %d -> %d", iter, rep.PeriodBefore, rep.PeriodAfter)
		}
		skip := c.NumRegs() + 2
		res, err := verify.Equivalent(c, out, verify.Stimulus{
			Cycles: skip + 48, Seqs: 4, Skip: skip,
			Seed: int64(iter), Bias: bias,
		})
		if err != nil {
			t.Fatalf("iter %d (%s, obj %d): NOT EQUIVALENT: %v", iter, c.Name, obj, err)
		}
		if res.Compared == 0 {
			t.Logf("iter %d: warning: no known-vs-known samples (deeply X circuit)", iter)
		}
		// Every few iterations, upgrade the random check to a bounded
		// PROOF over all input sequences.
		if iter%10 == 0 && c.NumRegs() <= 12 {
			pr, err := bmc.Check(c, out, bmc.Options{Depth: 6})
			if err != nil {
				t.Fatalf("iter %d: bmc: %v", iter, err)
			}
			if !pr.Equivalent {
				t.Fatalf("iter %d: BMC found mismatch at cycle %d output %d",
					iter, pr.Cycle, pr.Output)
			}
		}
	}
}

// FuzzRetimeVerify is the retime-then-verify round-trip fuzzer: a seed and a
// size drive the internal/gen random sequential circuit generator, the
// circuit is retimed under a fuzzer-chosen objective and budget starvation,
// and the result must be sequentially equivalent to the input. The engine
// may degrade under tiny budgets but may neither crash nor return a wrong
// circuit; invariant checking is forced on by this test binary.
func FuzzRetimeVerify(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(0))
	f.Add(int64(2026), uint8(60), uint8(1))
	f.Add(int64(-7), uint8(12), uint8(2))
	f.Add(int64(424242), uint8(90), uint8(3))
	f.Add(int64(77), uint8(45), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, size, mode uint8) {
		c := gen.Random(seed, 10+int(size)%80)
		if c.NumRegs() == 0 {
			t.Skip("no registers to move")
		}
		opts := Options{Objective: MinAreaAtMinPeriod}
		switch mode % 5 {
		case 1:
			opts.Objective = MinPeriod
		case 2:
			opts.Budgets = Budgets{BDDNodes: 1} // every global justification escalates to SAT
		case 3:
			opts.Budgets = Budgets{BDDNodes: 64, SATConflicts: 64, FlowAugmentations: 256, MinAreaRounds: 4}
		case 4:
			opts.Budgets = Budgets{1, 1, 1, 1} // every budget starved at once
		}
		out, rep, err := Retime(c, opts)
		if err != nil {
			t.Fatalf("%s (mode %d): %v", c.Name, mode%5, err)
		}
		if rep.PeriodAfter > rep.PeriodBefore {
			t.Fatalf("%s: period worsened %d -> %d", c.Name, rep.PeriodBefore, rep.PeriodAfter)
		}
		skip := c.NumRegs() + out.NumRegs() + 2
		if _, err := verify.Equivalent(c, out, verify.Stimulus{
			Cycles: skip + 32, Seqs: 2, Skip: skip, Seed: seed,
			Bias: map[string]float64{"en1": 0.8, "en2": 0.7, "rst": 0.2, "arst": 0.15},
		}); err != nil {
			t.Fatalf("%s (mode %d): NOT EQUIVALENT: %v", c.Name, mode%5, err)
		}
	})
}

// Retiming twice must keep equivalence and never worsen the period
// (idempotence of the fixpoint).
func TestRetimeTwiceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		c := gen.Random(rng.Int63(), 40)
		if c.NumRegs() == 0 {
			continue
		}
		once, rep1, err := Retime(c, Options{Objective: MinAreaAtMinPeriod})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		twice, rep2, err := Retime(once, Options{Objective: MinAreaAtMinPeriod})
		if err != nil {
			t.Fatalf("iter %d: second retime: %v", iter, err)
		}
		if rep2.PeriodAfter > rep1.PeriodAfter {
			t.Errorf("iter %d: second retime worsened period %d -> %d",
				iter, rep1.PeriodAfter, rep2.PeriodAfter)
		}
		skip := c.NumRegs() + twice.NumRegs() + 2
		if _, err := verify.Equivalent(c, twice, verify.Stimulus{
			Cycles: skip + 40, Seqs: 3, Skip: skip, Seed: int64(iter),
			Bias: map[string]float64{"en1": 0.8, "en2": 0.7, "rst": 0.2, "arst": 0.15},
		}); err != nil {
			t.Fatalf("iter %d: double retime not equivalent: %v", iter, err)
		}
	}
}
