package graph

import (
	"slices"
	"testing"
)

// FuzzPeriodCuts drives one CutSweep through a sequence of legal retimings a
// few vertices apart, now and then on a copy of the graph with new delays
// (WithDelays), and checks every sweep against a fresh full one: the same
// cuts in the same order (X, Y, B and PathDelay) and the same achieved
// period, whether the sweep ran incrementally or fell back.
func FuzzPeriodCuts(f *testing.F) {
	for _, seed := range []string{"", "\x00", "\x07\x03\x01\x02", "period cuts", "a cone of zero-weight paths"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := newByteSource(data)
		g := randLadderGraph(src, 0)
		hi, err := g.Period(nil)
		if err != nil {
			t.Skip(err)
		}
		n := g.NumVertices()
		r := make([]int32, n)
		var inc CutSweep
		for step := 0; step < 24; step++ {
			// Move a few vertices one step each, keeping r legal.
			for k := 1 + src.Intn(3); k > 0; k-- {
				v := VertexID(1 + src.Intn(n-1))
				d := int32(1 - 2*src.Intn(2))
				r[v] += d
				if g.CheckLegal(r) != nil {
					r[v] -= d
				}
			}
			if src.Intn(8) == 0 {
				delay := slices.Clone(g.Delay)
				delay[1+src.Intn(n-1)] += int64(1 + src.Intn(5))
				g = g.WithDelays(delay)
			}
			phi := int64(src.Intn(int(hi) + 2))
			got, gotPhi, err := inc.Cuts(g, r, phi)
			if err != nil {
				t.Fatalf("step %d: incremental sweep: %v", step, err)
			}
			want, wantPhi, err := new(CutSweep).Cuts(g, r, phi)
			if err != nil {
				t.Fatalf("step %d: full sweep: %v", step, err)
			}
			if gotPhi != wantPhi || !slices.Equal(got, want) {
				t.Fatalf("step %d at phi %d, r %v:\nincremental %v (period %d)\nfull        %v (period %d)",
					step, phi, r, got, gotPhi, want, wantPhi)
			}
			if p, _ := g.Period(r); p != wantPhi {
				t.Fatalf("step %d: sweep period %d, Period %d", step, wantPhi, p)
			}
		}
	})
}
