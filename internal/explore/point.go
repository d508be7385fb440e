package explore

import (
	"context"
	"fmt"
	"sync"

	"mcretiming/internal/core"
	"mcretiming/internal/netlist"
	"mcretiming/internal/store"
)

// PointSolver solves single design-space points on demand — the worker side
// of a clustered sweep. It keeps a small LRU of core.Prepared values keyed by
// circuit bytes + option fingerprint, so the stream of points a coordinator
// routes to one worker (consistent hashing sends a sweep's points to the same
// node) pays for Prepare once and reuses the shared cut pool and anchor
// across points, exactly like the in-process sweep does.
//
// Every answer is byte-identical to the coordinator solving the same point
// inline: core.Prepared.SolveAtPeriod is a pure function of (circuit,
// options, period) — see its contract — so it does not matter which node, or
// how many nodes, a sweep lands on.
type PointSolver struct {
	// MaxPrepared bounds the Prepared cache (default 4 circuits).
	MaxPrepared int

	mu    sync.Mutex
	cache map[string]*core.Prepared
	order []string // LRU order, oldest first
}

// Solve computes the point of c at period phi under o, serving from st when
// the entry exists and persisting the result when it does not. st may be nil.
func (ps *PointSolver) Solve(ctx context.Context, c *netlist.Circuit, o core.Options, phi int64, st *store.Store) (*Solution, error) {
	k, err := newKeys(c, o)
	if err != nil {
		return nil, err
	}
	var sol Solution
	if st.Load(ctx, k.point(phi), &sol) && sol.PeriodPS == phi {
		return &sol, nil
	}
	prep, err := ps.prepared(ctx, c, o, k)
	if err != nil {
		return nil, err
	}
	out, rep, err := prep.SolveAtPeriod(ctx, phi, nil)
	if err != nil {
		return nil, fmt.Errorf("explore: period %d: %w", phi, err)
	}
	pt, err := newPoint(out, rep)
	if err != nil {
		return nil, err
	}
	sol = solutionFromPoint(pt)
	// Persistence is best-effort, like the sweep's: a failed save costs a
	// future re-solve, never correctness.
	_ = st.Save(ctx, k.point(phi), sol)
	return &sol, nil
}

// prepared returns the cached Prepared for (circuit, options), building and
// inserting one on miss. Concurrent misses on the same key may both build;
// the duplicates are identical and the loser is dropped, which beats holding
// the lock across a Prepare.
func (ps *PointSolver) prepared(ctx context.Context, c *netlist.Circuit, o core.Options, k *keys) (*core.Prepared, error) {
	id := store.Key(k.ckt, k.fp)
	ps.mu.Lock()
	if p, ok := ps.cache[id]; ok {
		ps.touch(id)
		ps.mu.Unlock()
		return p, nil
	}
	ps.mu.Unlock()

	p, err := core.Prepare(ctx, c, o)
	if err != nil {
		return nil, err
	}

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if existing, ok := ps.cache[id]; ok {
		ps.touch(id)
		return existing, nil
	}
	if ps.cache == nil {
		ps.cache = make(map[string]*core.Prepared)
	}
	maxN := ps.MaxPrepared
	if maxN <= 0 {
		maxN = 4
	}
	for len(ps.cache) >= maxN {
		oldest := ps.order[0]
		ps.order = ps.order[1:]
		delete(ps.cache, oldest)
	}
	ps.cache[id] = p
	ps.order = append(ps.order, id)
	return p, nil
}

// touch moves id to the most-recently-used end. Caller holds ps.mu.
func (ps *PointSolver) touch(id string) {
	for i, v := range ps.order {
		if v == id {
			ps.order = append(ps.order[:i], ps.order[i+1:]...)
			ps.order = append(ps.order, id)
			return
		}
	}
}

// PointKey exposes the store key of one point, so a dispatcher can route a
// point to the worker that most likely holds it warm.
func PointKey(c *netlist.Circuit, o core.Options, phi int64) (string, error) {
	k, err := newKeys(c, o)
	if err != nil {
		return "", err
	}
	return k.point(phi), nil
}
