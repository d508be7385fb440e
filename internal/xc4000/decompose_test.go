package xc4000_test

import (
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/netlist"
	"mcretiming/internal/verify"
	"mcretiming/internal/xc4000"
)

// TestDecomposeSyncResetsKeepsResetPriority: gen.Random gives registers every
// mix of load enable, synchronous reset and asynchronous reset, so
// decomposing the synchronous resets must leave each circuit equivalent to
// itself — including where the reset wins over a low enable — and so must
// mapping the decomposed circuit.
func TestDecomposeSyncResetsKeepsResetPriority(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkDecomposition(t, gen.Random(seed, 300), seed)
	}
}

// FuzzDecomposeSyncResets checks the decomposition and its mapping as
// TestDecomposeSyncResetsKeepsResetPriority does, on generated circuits of a
// fuzzer-chosen seed and size.
func FuzzDecomposeSyncResets(f *testing.F) {
	f.Add(int64(1), uint16(300))
	f.Add(int64(7), uint16(40))
	f.Add(int64(-3), uint16(120))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		checkDecomposition(t, gen.Random(seed, 10+int(size)%400), seed)
	})
}

// checkDecomposition requires c to be equivalent to its sync-reset
// decomposition and to the XC4000 mapping of that decomposition.
func checkDecomposition(t *testing.T, c *netlist.Circuit, seed int64) {
	t.Helper()
	mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c.Clone()))
	if err != nil {
		t.Fatalf("seed %d: map: %v", seed, err)
	}
	for _, step := range []struct {
		name string
		out  *netlist.Circuit
	}{
		{"decomposed", xc4000.DecomposeSyncResets(c.Clone())},
		{"mapped", mapped},
	} {
		res, err := verify.Equivalent(c, step.out, verify.Stimulus{Cycles: 48, Seqs: 4, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d, %s: %v", seed, step.name, err)
		}
		if res.Compared == 0 {
			t.Fatalf("seed %d, %s: no output was ever compared", seed, step.name)
		}
	}
}
