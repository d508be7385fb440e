package mcf

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mcretiming/internal/rterr"
	"mcretiming/internal/trace"
)

// solveSSP is the successive-shortest-paths solve that SolveCtx replaced,
// kept as the test oracle: one Dijkstra, one excess scan and one potential
// fold per augmenting path. It leaves the solver in the same state a
// successful SolveCtx does (s.pi, s.nextNew), so Reoptimize and
// ResidualPotentials apply to either.
func (s *Solver) solveSSP(ctx context.Context) (int64, error) {
	sink := trace.From(ctx)
	var total int64
	for _, b := range s.supply {
		total += b
	}
	if total != 0 {
		return 0, fmt.Errorf("mcf: supplies sum to %d, want 0", total)
	}
	excess := append([]int64(nil), s.supply...)
	pi, ok := s.residualDistances()
	if !ok {
		return 0, errors.New("mcf: negative cycle in residual network")
	}
	var cost int64
	dist := make([]int64, s.n)
	prevNode := make([]int32, s.n)
	prevArc := make([]int32, s.n)
	augmentations := 0
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		src := -1
		for v, e := range excess {
			if e > 0 {
				src = v
				break
			}
		}
		if src == -1 {
			s.pi = pi
			s.nextNew = len(s.arcRef)
			return cost, nil
		}
		augmentations++
		if s.MaxAugmentations > 0 && augmentations > s.MaxAugmentations {
			return 0, fmt.Errorf("mcf: augmentation budget %d exhausted: %w", s.MaxAugmentations, rterr.ErrBudgetExceeded)
		}
		sink.Add("flow-augmentations", 1)
		deficit := s.dijkstra(src, pi, excess, dist, prevNode, prevArc)
		if deficit == -1 {
			return 0, ErrInfeasible
		}
		// Fold the new distances into the potentials (unreached nodes keep
		// their old potential relative to the deficit node's distance).
		for v := 0; v < s.n; v++ {
			if dist[v] < math.MaxInt64 && dist[v] < dist[deficit] {
				pi[v] += dist[v]
			} else {
				pi[v] += dist[deficit]
			}
		}
		// Bottleneck along the path.
		amt := excess[src]
		if -excess[deficit] < amt {
			amt = -excess[deficit]
		}
		for v := deficit; v != src; v = int(prevNode[v]) {
			a := &s.adj[prevNode[v]][prevArc[v]]
			if a.cap < amt {
				amt = a.cap
			}
		}
		for v := deficit; v != src; v = int(prevNode[v]) {
			a := &s.adj[prevNode[v]][prevArc[v]]
			a.cap -= amt
			s.adj[v][a.rev].cap += amt
			cost += amt * a.cost
		}
		excess[src] -= amt
		excess[deficit] += amt
	}
}

// dijkstra computes shortest residual distances from src under the reduced
// costs cost(u,v) + pi[u] − pi[v] ≥ 0, stopping as soon as the closest
// deficit node is settled (its distance is then final); it returns that
// node, or -1 if no deficit is reachable. Distances of unsettled nodes may
// be upper bounds only — the caller's potential update caps them at the
// sink's distance, which keeps reduced costs nonnegative.
func (s *Solver) dijkstra(src int, pi []int64, excess, dist []int64, prevNode, prevArc []int32) int {
	for i := range dist {
		dist[i] = math.MaxInt64
		prevNode[i] = -1
	}
	dist[src] = 0
	h := pqMCF{{int32(src), 0}}
	for len(h) > 0 {
		it := h[0]
		h.pop()
		if it.dist > dist[it.v] {
			continue
		}
		if excess[it.v] < 0 {
			return int(it.v)
		}
		for ai := range s.adj[it.v] {
			a := &s.adj[it.v][ai]
			if a.cap <= 0 {
				continue
			}
			rc := a.cost + pi[it.v] - pi[a.to]
			if nd := it.dist + rc; nd < dist[a.to] {
				dist[a.to] = nd
				prevNode[a.to] = it.v
				prevArc[a.to] = int32(ai)
				h.push(pqItem{a.to, nd})
			}
		}
	}
	return -1
}
