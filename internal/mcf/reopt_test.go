package mcf

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// reoptInstance is one randomized uncapacitated transshipment dual of a
// feasible difference-constraint system — the exact shape the lazy minarea
// loop feeds the solver. Arcs are generated against a hidden ground-truth
// potential p (cost = p[x] − p[y] + slack, slack ≥ 0), which rules out
// negative cycles no matter which subset is present.
type reoptArc struct {
	y, x int
	cost int64
}

func randReoptInstance(rng *rand.Rand, n int) (base, extra []reoptArc, supply []int64) {
	p := make([]int64, n)
	for v := range p {
		p[v] = int64(rng.Intn(60))
	}
	mk := func(maxSlack int) reoptArc {
		y, x := rng.Intn(n), rng.Intn(n)
		for x == y {
			x = rng.Intn(n)
		}
		return reoptArc{y: y, x: x, cost: p[x] - p[y] + int64(rng.Intn(maxSlack+1))}
	}
	// A generous ring keeps every supply routable under any subset.
	for v := 0; v < n; v++ {
		w := (v + 1) % n
		base = append(base, reoptArc{y: v, x: w, cost: p[w] - p[v] + 40})
		base = append(base, reoptArc{y: w, x: v, cost: p[v] - p[w] + 40})
	}
	for i := 0; i < 3*n; i++ {
		base = append(base, mk(25))
	}
	// The incremental arcs are tight (small slack), so most of them cut off
	// the old optimum and force real repair work, pushes included.
	for i := 0; i < n; i++ {
		extra = append(extra, mk(2))
	}
	supply = make([]int64, n)
	for v := 0; v < n-1; v++ {
		supply[v] = int64(rng.Intn(9) - 4)
		supply[n-1] -= supply[v]
	}
	return base, extra, supply
}

func buildReopt(arcs []reoptArc, supply []int64) *Solver {
	s := New(len(supply))
	for _, a := range arcs {
		s.AddArc(a.y, a.x, Inf, a.cost)
	}
	for v, b := range supply {
		s.AddSupply(v, b)
	}
	return s
}

func arcsCost(s *Solver, arcs []reoptArc) int64 {
	var total int64
	for h, a := range arcs {
		total += s.Flow(h) * a.cost
	}
	return total
}

// TestReoptimizeMatchesColdSolve checks that Solve + AddArc + Reoptimize is
// indistinguishable from a cold Solve over the full arc set: same optimal
// cost, and bit-identical residual potentials. The potentials must agree
// exactly because with uncapacitated arcs the optimal residual network keeps
// every forward arc, and by complementary slackness the tight-arc system is
// the same optimal face for every optimal flow — the canonical shortest-path
// labeling cannot depend on how optimality was reached.
func TestReoptimizeMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		n := 6 + rng.Intn(20)
		base, extra, supply := randReoptInstance(rng, n)
		all := append(append([]reoptArc(nil), base...), extra...)

		cold := buildReopt(all, supply)
		coldCost, err := cold.Solve()
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		coldPi, err := cold.ResidualPotentials()
		if err != nil {
			t.Fatalf("trial %d: cold potentials: %v", trial, err)
		}

		warm := buildReopt(base, supply)
		if _, err := warm.Solve(); err != nil {
			t.Fatalf("trial %d: base solve: %v", trial, err)
		}
		for _, a := range extra {
			warm.AddArc(a.y, a.x, Inf, a.cost)
		}
		if err := warm.Reoptimize(context.Background()); err != nil {
			t.Fatalf("trial %d: reoptimize: %v", trial, err)
		}
		warmPi, err := warm.ResidualPotentials()
		if err != nil {
			t.Fatalf("trial %d: warm potentials (flow not optimal?): %v", trial, err)
		}
		if got := arcsCost(warm, all); got != coldCost {
			t.Fatalf("trial %d: warm cost %d, cold cost %d", trial, got, coldCost)
		}
		for v := range coldPi {
			if coldPi[v] != warmPi[v] {
				t.Fatalf("trial %d: potentials diverge at node %d: warm %d, cold %d",
					trial, v, warmPi[v], coldPi[v])
			}
		}
	}
}

// TestReoptimizeStaged absorbs the extra arcs over several Reoptimize calls
// (the cutting-plane loop adds a batch per round) and also re-checks that a
// Reoptimize with nothing new is a no-op.
func TestReoptimizeStaged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(16)
		base, extra, supply := randReoptInstance(rng, n)
		all := append(append([]reoptArc(nil), base...), extra...)

		cold := buildReopt(all, supply)
		coldCost, err := cold.Solve()
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		coldPi, err := cold.ResidualPotentials()
		if err != nil {
			t.Fatalf("trial %d: cold potentials: %v", trial, err)
		}

		warm := buildReopt(base, supply)
		if _, err := warm.Solve(); err != nil {
			t.Fatalf("trial %d: base solve: %v", trial, err)
		}
		for len(extra) > 0 {
			k := 1 + rng.Intn(len(extra))
			for _, a := range extra[:k] {
				warm.AddArc(a.y, a.x, Inf, a.cost)
			}
			extra = extra[k:]
			if err := warm.Reoptimize(context.Background()); err != nil {
				t.Fatalf("trial %d: staged reoptimize: %v", trial, err)
			}
		}
		if err := warm.Reoptimize(context.Background()); err != nil {
			t.Fatalf("trial %d: empty reoptimize: %v", trial, err)
		}
		warmPi, err := warm.ResidualPotentials()
		if err != nil {
			t.Fatalf("trial %d: warm potentials: %v", trial, err)
		}
		if got := arcsCost(warm, all); got != coldCost {
			t.Fatalf("trial %d: warm cost %d, cold cost %d", trial, got, coldCost)
		}
		for v := range coldPi {
			if coldPi[v] != warmPi[v] {
				t.Fatalf("trial %d: potentials diverge at node %d: warm %d, cold %d",
					trial, v, warmPi[v], coldPi[v])
			}
		}
	}
}

// TestResumeMatchesColdSolve removes arcs from a solved instance, re-routes
// the flow they carried with Resume, then adds fresh arcs and reoptimizes:
// the result must match a cold Solve over the arcs that remain, in cost and
// bit for bit in the residual potentials.
func TestResumeMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(16)
		base, extra, supply := randReoptInstance(rng, n)
		half := len(extra) / 2
		all := append(append([]reoptArc(nil), base...), extra[:half]...)

		warm := buildReopt(all, supply)
		if _, err := warm.Solve(); err != nil {
			t.Fatalf("trial %d: solve: %v", trial, err)
		}
		// Drop a random share of the extra arcs (the flow they carry
		// included), keep the rest.
		kept := append([]reoptArc(nil), base...)
		for i, a := range extra[:half] {
			if rng.Intn(2) == 0 {
				warm.RemoveArc(len(base) + i)
			} else {
				kept = append(kept, a)
			}
		}
		if err := warm.Resume(context.Background()); err != nil {
			t.Fatalf("trial %d: resume: %v", trial, err)
		}
		for _, a := range extra[half:] {
			warm.AddArc(a.y, a.x, Inf, a.cost)
			kept = append(kept, a)
		}
		if err := warm.Reoptimize(context.Background()); err != nil {
			t.Fatalf("trial %d: reoptimize: %v", trial, err)
		}

		cold := buildReopt(kept, supply)
		coldCost, err := cold.Solve()
		if err != nil {
			t.Fatalf("trial %d: cold solve: %v", trial, err)
		}
		// Removed arcs read zero flow, so the cost sums over every handle.
		if warmCost := arcsCost(warm, append(all, extra[half:]...)); warmCost != coldCost {
			t.Fatalf("trial %d: resumed cost %d, cold cost %d", trial, warmCost, coldCost)
		}
		warmPi, err := warm.ResidualPotentials()
		if err != nil {
			t.Fatalf("trial %d: resumed potentials: %v", trial, err)
		}
		coldPi, err := cold.ResidualPotentials()
		if err != nil {
			t.Fatalf("trial %d: cold potentials: %v", trial, err)
		}
		if !slices.Equal(warmPi, coldPi) {
			t.Fatalf("trial %d: potentials differ:\nresumed %v\ncold    %v", trial, warmPi, coldPi)
		}
	}
}
