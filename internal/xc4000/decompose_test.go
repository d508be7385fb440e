package xc4000_test

import (
	"testing"

	"mcretiming/internal/gen"
	"mcretiming/internal/verify"
	"mcretiming/internal/xc4000"
)

// TestDecomposeSyncResetsKeepsResetPriority: gen.Random gives registers every
// mix of load enable, synchronous reset and asynchronous reset, so
// decomposing the synchronous resets must leave each circuit equivalent to
// itself — including where the reset wins over a low enable.
func TestDecomposeSyncResetsKeepsResetPriority(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := gen.Random(seed, 300)
		res, err := verify.Equivalent(c, xc4000.DecomposeSyncResets(c.Clone()),
			verify.Stimulus{Cycles: 48, Seqs: 4, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Compared == 0 {
			t.Fatalf("seed %d: no output was ever compared", seed)
		}
	}
}
