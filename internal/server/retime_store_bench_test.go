package server

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mcretiming/internal/blif"
	"mcretiming/internal/gen"
	"mcretiming/internal/store"
	"mcretiming/internal/xc4000"
)

// BenchmarkRetimeMissCost splits what a retime job that misses the result
// store costs on mapped C9: "solve" is the run every miss pays, store or
// not; "store" is what a configured store adds to it (retimeKey, the failed
// Load and the Save of the whole result). Each "store" iteration keys a
// fresh circuit text, so every Load misses and every Save writes a new
// entry, as a stream of distinct circuits does.
//
//	go test -run '^$' -bench BenchmarkRetimeMissCost -benchtime 50x ./internal/server/
func BenchmarkRetimeMissCost(b *testing.B) {
	var c9 *gen.Profile
	for i := range gen.Profiles {
		if gen.Profiles[i].Name == "C9" {
			c9 = &gen.Profiles[i]
		}
	}
	c, err := c9.Build()
	if err != nil {
		b.Fatal(err)
	}
	mapped, err := xc4000.Map(xc4000.DecomposeSyncResets(c))
	if err != nil {
		b.Fatal(err)
	}
	var in strings.Builder
	if err := blif.Write(&in, mapped); err != nil {
		b.Fatal(err)
	}
	text := in.String()
	ctx := context.Background()
	s := New(Config{Logf: quiet})
	res, err := s.runRetime(ctx, text, JobOptions{})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.runRetime(ctx, text, JobOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		texts := make([]string, b.N)
		for i := range texts {
			texts[i] = fmt.Sprintf("# variant %d\n", i) + text
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key, err := retimeKey(JobSpec{BLIF: texts[i]})
			if err != nil {
				b.Fatal(err)
			}
			var got Result
			if st.Load(ctx, key, &got) {
				b.Fatal("a fresh key hit")
			}
			if err := st.Save(ctx, key, res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
