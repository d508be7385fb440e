package explore

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"mcretiming/internal/blif"
	"mcretiming/internal/core"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/netlist"
	"mcretiming/internal/rterr"
)

// TestRemoteSweepBitIdentical: a sweep whose points are "forwarded" to a
// PointSolver through the Remote hook — the clustered fan-out path — emits a
// front byte-identical to the plain in-process sweep, and a Remote that fails
// on every call degrades to exactly the same bytes.
func TestRemoteSweepBitIdentical(t *testing.T) {
	c := mappedProfile(t, 2)
	base := Options{MaxPoints: goldenMaxPoints, Parallelism: 2}
	want := frontJSON(t, sweep(t, c, base))

	// The "worker": its own PointSolver on its own copy of the circuit, no
	// shared state with the sweep. The copy travels as BLIF text — delays
	// survive via the "# .mcdelay" extension — so this is the cluster's
	// actual wire path: parse, solve, and the result must match bit for bit.
	var ps PointSolver
	var forwarded atomic.Int64
	remote := base
	remote.Remote = func(ctx context.Context, key string, phi int64) (*Solution, error) {
		forwarded.Add(1)
		var wire bytes.Buffer
		if err := blif.Write(&wire, c); err != nil {
			return nil, err
		}
		wc, err := blif.Read(&wire)
		if err != nil {
			return nil, err
		}
		return ps.Solve(ctx, wc, base.Core, phi, nil)
	}
	got := frontJSON(t, sweep(t, c, remote))
	if !bytes.Equal(want, got) {
		t.Fatalf("remote-solved front differs from local front:\n%s\nvs\n%s", got, want)
	}
	if forwarded.Load() == 0 {
		t.Fatal("Remote hook was never offered a point")
	}

	// The routing key must be the point key the worker side derives itself.
	remote.Remote = func(ctx context.Context, key string, phi int64) (*Solution, error) {
		wk, err := PointKey(c, base.Core, phi)
		if err != nil {
			return nil, err
		}
		if wk != key {
			t.Errorf("key mismatch at phi=%d: sweep %s vs worker %s", phi, key, wk)
		}
		return nil, errors.New("cluster down")
	}
	down := frontJSON(t, sweep(t, c, remote))
	if !bytes.Equal(want, down) {
		t.Fatal("sweep with a failing Remote is not byte-identical to local")
	}
}

// TestPointSolverPreparedReuse: repeated solves of one circuit reuse a single
// Prepared; the LRU evicts the oldest circuit once MaxPrepared is exceeded.
func TestPointSolverPreparedReuse(t *testing.T) {
	ps := PointSolver{MaxPrepared: 1}
	ctx := context.Background()
	a, b := mappedProfile(t, 2), mappedProfile(t, 7)

	solve := func(c *netlist.Circuit) {
		t.Helper()
		k, err := newKeys(c, Options{}.Core)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := ps.prepared(ctx, c, Options{}.Core, k)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ps.prepared(ctx, c, Options{}.Core, k)
		if err != nil {
			t.Fatal(err)
		}
		if prep != again {
			t.Fatal("second prepared() did not reuse the cached Prepared")
		}
	}
	solve(a)
	solve(b) // evicts a (MaxPrepared=1)
	if len(ps.cache) != 1 || len(ps.order) != 1 {
		t.Fatalf("cache size = %d/%d, want 1 after eviction", len(ps.cache), len(ps.order))
	}
}

// TestPointSolverRecoversFromFailedAnchor: a forwarded run that fails inside
// the anchor solve of a freshly cached Prepared (here a per-job failpoint)
// must not poison that Prepared — the next run of the circuit on the same
// PointSolver answers exactly as a fresh PointSolver does.
func TestPointSolverRecoversFromFailedAnchor(t *testing.T) {
	c := mappedProfile(t, 2)
	o := Options{}.Core
	ctx := context.Background()
	prep, err := core.Prepare(ctx, c, o)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := prep.Anchor(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	phi := rep.PeriodAfter
	var fresh PointSolver
	want, err := fresh.Solve(ctx, c, o, phi, nil)
	if err != nil {
		t.Fatal(err)
	}

	set, err := failpoint.ParseSet("pass.minperiod=1*error(internal)")
	if err != nil {
		t.Fatal(err)
	}
	fctx, release := failpoint.With(ctx, set)
	defer release()
	var ps PointSolver
	if _, err := ps.Solve(fctx, c, o, phi, nil); !errors.Is(err, rterr.ErrInternal) {
		t.Fatalf("faulted run: err = %v, want the injected ErrInternal", err)
	}
	if len(ps.cache) != 1 {
		t.Fatalf("faulted run cached %d Prepared, want 1", len(ps.cache))
	}
	got, err := ps.Solve(ctx, c, o, phi, nil)
	if err != nil {
		t.Fatalf("run after a failed anchor: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run after a failed anchor = %+v, want %+v", got, want)
	}
}
