package mcf

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"mcretiming/internal/rterr"
	"mcretiming/internal/trace"
)

// instArc is one arc of a generated instance.
type instArc struct {
	u, v      int
	cap, cost int64
}

// instance is a generated min-cost-flow problem: base arcs and supplies for
// the cold solve, extra arcs for a later Reoptimize.
type instance struct {
	n      int
	arcs   []instArc
	extra  []instArc
	supply []int64
	// wild instances draw arc costs freely, so negative cycles can occur;
	// the others derive every cost from a hidden potential plus a
	// nonnegative slack, so every cycle costs at least zero.
	wild bool
}

// genInstance draws an instance from next, which returns a value in [0, k):
// up to 14 nodes, capacitated and Inf arcs, self-loops, negative costs, and
// supplies that are sometimes unbalanced or unroutable.
func genInstance(next func(k int) int) instance {
	wild := next(5) == 0
	unbalanced := next(10) == 0
	n := 1 + next(14)
	inst := instance{n: n, supply: make([]int64, n), wild: wild}
	p := make([]int64, n)
	for v := range p {
		p[v] = int64(next(21))
	}
	arc := func() instArc {
		a := instArc{u: next(n), v: next(n), cap: Inf}
		if next(3) == 0 {
			a.cap = int64(1 + next(6))
		}
		if wild {
			a.cost = int64(next(14) - 3)
		} else {
			a.cost = p[a.v] - p[a.u] + int64(next(11))
		}
		return a
	}
	for i := n + next(3*n+1); i > 0; i-- {
		inst.arcs = append(inst.arcs, arc())
	}
	for i := next(n + 1); i > 0; i-- {
		inst.extra = append(inst.extra, arc())
	}
	for v := 0; v < n-1; v++ {
		inst.supply[v] = int64(next(9) - 4)
		inst.supply[n-1] -= inst.supply[v]
	}
	if unbalanced {
		inst.supply[next(n)] += int64(1 + next(3))
	}
	return inst
}

func (inst instance) build() *Solver {
	s := New(inst.n)
	for _, a := range inst.arcs {
		s.AddArc(a.u, a.v, a.cap, a.cost)
	}
	for v, b := range inst.supply {
		s.AddSupply(v, b)
	}
	return s
}

// errClass maps a solve error to what both solvers must agree on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, rterr.ErrBudgetExceeded):
		return "budget"
	default:
		return err.Error()
	}
}

// checkAgainstSSP solves inst with SolveCtx and with the successive-
// shortest-paths oracle and requires the same cost and error class, a
// feasible flow, identical ResidualPotentials, and a phase count between 1
// and the number of augmenting paths. A solve of two or more paths must hit
// a one-path budget. Unless inst is wild, both solvers then absorb the extra
// arcs through Reoptimize and must again read back identical potentials. It
// returns the error class.
func checkAgainstSSP(t *testing.T, inst instance) string {
	t.Helper()
	ctx := context.Background()
	pd, ssp := inst.build(), inst.build()
	rec := trace.NewRecorder()
	got, gotErr := pd.SolveCtx(trace.With(ctx, rec))
	want, wantErr := ssp.solveSSP(ctx)
	class := errClass(gotErr)
	if class != errClass(wantErr) {
		t.Fatalf("%+v: error %v, oracle %v", inst, gotErr, wantErr)
	}
	if wantErr != nil {
		return class
	}
	if got != want {
		t.Fatalf("%+v: cost %d, oracle %d", inst, got, want)
	}
	checkFlow(t, inst, pd, got)
	augs, phases := rec.Counter("flow-augmentations"), rec.Counter("flow-phases")
	if (augs == 0 && phases != 0) || (augs > 0 && (phases < 1 || phases > augs)) {
		t.Fatalf("%+v: %d phases for %d augmenting paths", inst, phases, augs)
	}
	samePotentials(t, inst, "solve", pd, ssp)
	if augs >= 2 {
		b := inst.build()
		b.MaxAugmentations = 1
		if _, err := b.Solve(); !errors.Is(err, rterr.ErrBudgetExceeded) {
			t.Fatalf("%+v: one-path budget on a %d-path solve: %v", inst, augs, err)
		}
	}
	if inst.wild {
		return class
	}
	for _, s := range []*Solver{pd, ssp} {
		for _, a := range inst.extra {
			s.AddArc(a.u, a.v, a.cap, a.cost)
		}
		if err := s.Reoptimize(ctx); err != nil {
			t.Fatalf("%+v: reoptimize: %v", inst, err)
		}
	}
	samePotentials(t, inst, "reoptimize", pd, ssp)
	return class
}

// checkFlow requires s's flow to respect capacities and supplies and to cost
// exactly cost.
func checkFlow(t *testing.T, inst instance, s *Solver, cost int64) {
	t.Helper()
	bal := slices.Clone(inst.supply)
	var total int64
	for h, a := range inst.arcs {
		f := s.Flow(h)
		if f < 0 || f > a.cap {
			t.Fatalf("%+v: arc %d carries %d, capacity %d", inst, h, f, a.cap)
		}
		bal[a.u] -= f
		bal[a.v] += f
		total += f * a.cost
	}
	for v, b := range bal {
		if b != 0 {
			t.Fatalf("%+v: node %d left with imbalance %d", inst, v, b)
		}
	}
	if total != cost {
		t.Fatalf("%+v: flow costs %d, solve reported %d", inst, total, cost)
	}
}

func samePotentials(t *testing.T, inst instance, stage string, got, want *Solver) {
	t.Helper()
	gp, err := got.ResidualPotentials()
	if err != nil {
		t.Fatalf("%+v: %s: potentials: %v", inst, stage, err)
	}
	wp, err := want.ResidualPotentials()
	if err != nil {
		t.Fatalf("%+v: %s: oracle potentials: %v", inst, stage, err)
	}
	if !slices.Equal(gp, wp) {
		t.Fatalf("%+v: %s: potentials %v, oracle %v", inst, stage, gp, wp)
	}
}

// TestSolveMatchesSSP runs SolveCtx against the successive-shortest-paths
// oracle on seeded random instances and requires every error class to come
// up.
func TestSolveMatchesSSP(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	classes := map[string]int{}
	for i := 0; i < 3000; i++ {
		classes[checkAgainstSSP(t, genInstance(rng.Intn))]++
	}
	t.Logf("error classes: %v", classes)
	for _, c := range []string{"ok", "infeasible"} {
		if classes[c] < 100 {
			t.Errorf("only %d instances ended %q", classes[c], c)
		}
	}
	if len(classes) < 4 {
		t.Errorf("want unbalanced and negative-cycle instances too, got %v", classes)
	}
}

// FuzzMCF decodes an instance from the fuzzer's bytes and checks it as
// TestSolveMatchesSSP does.
func FuzzMCF(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 96)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(k int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % k
		}
		checkAgainstSSP(t, genInstance(next))
	})
}
