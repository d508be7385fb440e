package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mcretiming/internal/retry"
)

// --- ring ---

// TestRingDeterministicAndStable: lookups are deterministic, cover all
// members, and removing one node only moves that node's keys — everyone
// else's assignment is untouched (the consistent-hashing contract).
func TestRingDeterministicAndStable(t *testing.T) {
	ids := []string{"w1", "w2", "w3", "w4"}
	r1 := buildRing(ids, 0)
	r2 := buildRing(ids, 0)

	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	owner := make(map[string]string)
	counts := make(map[string]int)
	for _, k := range keys {
		a, b := r1.lookup(k, 1), r2.lookup(k, 1)
		if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
			t.Fatalf("lookup(%q) nondeterministic: %v vs %v", k, a, b)
		}
		owner[k] = a[0]
		counts[a[0]]++
	}
	for _, id := range ids {
		if counts[id] == 0 {
			t.Errorf("worker %s owns no keys (distribution collapsed): %v", id, counts)
		}
	}

	// Drop w3: keys owned by others must not move.
	r3 := buildRing([]string{"w1", "w2", "w4"}, 0)
	for _, k := range keys {
		got := r3.lookup(k, 1)[0]
		if owner[k] != "w3" && got != owner[k] {
			t.Errorf("key %q moved %s -> %s though its owner survived", k, owner[k], got)
		}
		if owner[k] == "w3" && got == "w3" {
			t.Errorf("key %q still routed to removed worker", k)
		}
	}

	// Preference lists enumerate distinct workers in ring order.
	if got := r1.lookup("some-key", 0); len(got) != len(ids) {
		t.Errorf("full lookup returned %v, want all %d workers", got, len(ids))
	}
	if got := buildRing(nil, 0).lookup("k", 1); got != nil {
		t.Errorf("empty ring lookup = %v, want nil", got)
	}
}

// --- registry ---

// fakeClock is an injectable clock for lease tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestRegistry(clk *fakeClock) *Registry {
	return NewRegistry(RegistryConfig{
		LeaseTTL:  time.Second,
		DeadAfter: 3 * time.Second,
		Now:       clk.now,
	})
}

// TestRegistryLeaseLadder walks one worker down alive → suspect → dead by
// withholding heartbeats, then revives it with a single heartbeat.
func TestRegistryLeaseLadder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newTestRegistry(clk)
	r.Join("w1", "http://w1")

	stateOf := func() State {
		ws := r.Workers()
		if len(ws) != 1 {
			t.Fatalf("workers = %v", ws)
		}
		return ws[0].State
	}
	if got := stateOf(); got != StateAlive {
		t.Fatalf("fresh join: state = %s", got)
	}
	clk.advance(1500 * time.Millisecond) // past TTL
	if got := stateOf(); got != StateSuspect {
		t.Fatalf("lease lapsed: state = %s", got)
	}
	clk.advance(2 * time.Second) // past DeadAfter
	if got := stateOf(); got != StateDead {
		t.Fatalf("lease stale: state = %s", got)
	}
	if _, ok := r.Route("k", nil); ok {
		t.Fatal("dead worker was routed to")
	}
	if !r.Heartbeat("w1") {
		t.Fatal("heartbeat for a known worker rejected")
	}
	if got := stateOf(); got != StateAlive {
		t.Fatalf("after revival heartbeat: state = %s", got)
	}
	if _, ok := r.Route("k", nil); !ok {
		t.Fatal("revived worker not routable")
	}
}

// TestRegistryDemote: forward failures step the ladder immediately, and a
// heartbeat clears the penalty.
func TestRegistryDemote(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newTestRegistry(clk)
	r.Join("w1", "http://w1")

	r.Demote("w1")
	if ws := r.Workers(); ws[0].State != StateSuspect {
		t.Fatalf("after one demote: %s", ws[0].State)
	}
	// Still routable as a last resort.
	if _, ok := r.Route("k", nil); !ok {
		t.Fatal("suspect worker not routable as fallback")
	}
	r.Demote("w1")
	if ws := r.Workers(); ws[0].State != StateDead {
		t.Fatalf("after two demotes: %s", ws[0].State)
	}
	if _, ok := r.Route("k", nil); ok {
		t.Fatal("dead worker routed to")
	}
	if !r.Heartbeat("w1") || r.Workers()[0].State != StateAlive {
		t.Fatal("heartbeat did not clear the demotion")
	}
	// Alive workers are preferred over suspect ones regardless of ring order.
	r.Join("w2", "http://w2")
	r.Demote("w1")
	for _, key := range []string{"a", "b", "c", "d"} {
		w, ok := r.Route(key, nil)
		if !ok || w.ID != "w2" {
			t.Fatalf("Route(%q) = %+v, want alive w2 over suspect w1", key, w)
		}
	}
}

// TestRegistryForget: long-dead workers disappear from snapshots.
func TestRegistryForget(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := NewRegistry(RegistryConfig{LeaseTTL: time.Second, DeadAfter: 2 * time.Second, ForgetAfter: 10 * time.Second, Now: clk.now})
	r.Join("w1", "http://w1")
	clk.advance(5 * time.Second)
	if ws := r.Workers(); len(ws) != 1 || ws[0].State != StateDead {
		t.Fatalf("workers = %+v, want one dead", ws)
	}
	clk.advance(6 * time.Second)
	if ws := r.Workers(); len(ws) != 0 {
		t.Fatalf("workers = %+v, want forgotten", ws)
	}
}

// --- dispatcher ---

// testWorker is a fake worker endpoint.
func testWorker(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/run", handler)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs
}

func okHandler(id string, calls *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if calls != nil {
			calls.Add(1)
		}
		_ = json.NewEncoder(w).Encode(RunResponse{Result: json.RawMessage(`{"from":"` + id + `"}`)})
	}
}

func noJitter() retry.Schedule {
	return retry.Schedule{Base: time.Millisecond, Cap: time.Millisecond, Jitter: -1}
}

// TestDispatchReroutesOnWorkerLoss: the ring's first choice is dead (its
// listener is closed), so the dispatcher demotes it and the job completes on
// the surviving worker.
func TestDispatchReroutesOnWorkerLoss(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := newTestRegistry(clk)

	var survivorCalls atomic.Int64
	survivor := testWorker(t, okHandler("survivor", &survivorCalls))
	casualty := testWorker(t, okHandler("casualty", nil))
	casualty.Close() // connection refused from the first forward on

	reg.Join("casualty", casualty.URL)
	reg.Join("survivor", survivor.URL)

	d := &Dispatcher{Registry: reg, MaxAttempts: 4, Backoff: noJitter()}
	// Try many keys so some are owned by the dead worker.
	for i := 0; i < 8; i++ {
		resp, workerID, err := d.Do(context.Background(), fmt.Sprintf("key-%d", i), RunRequest{Kind: KindRetime})
		if err != nil {
			t.Fatalf("Do(key-%d) = %v", i, err)
		}
		if workerID != "survivor" {
			t.Fatalf("job landed on %s", workerID)
		}
		var got map[string]string
		_ = json.Unmarshal(resp.Result, &got)
		if got["from"] != "survivor" {
			t.Fatalf("result = %v", got)
		}
	}
	if survivorCalls.Load() != 8 {
		t.Errorf("survivor ran %d jobs, want 8", survivorCalls.Load())
	}
	// The casualty was demoted by transport evidence (once demoted to
	// suspect, the alive survivor is always preferred, so it is demoted
	// exactly once rather than walked all the way to dead).
	for _, w := range reg.Workers() {
		if w.ID == "casualty" {
			if w.State == StateAlive || w.Failures == 0 {
				t.Errorf("casualty = %+v, want demoted with recorded failures", w)
			}
		}
	}
}

// TestDispatchQueueFullReroutes: a 429 from the owner re-routes without
// demoting it.
func TestDispatchQueueFullReroutes(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := newTestRegistry(clk)
	busy := testWorker(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":{"code":"queue_full","detail":"full"}}`))
	})
	idle := testWorker(t, okHandler("idle", nil))
	reg.Join("busy", busy.URL)
	reg.Join("idle", idle.URL)

	d := &Dispatcher{Registry: reg, MaxAttempts: 4, Backoff: noJitter()}
	for i := 0; i < 8; i++ {
		_, workerID, err := d.Do(context.Background(), fmt.Sprintf("key-%d", i), RunRequest{Kind: KindRetime})
		if err != nil || workerID != "idle" {
			t.Fatalf("Do = worker %q, err %v", workerID, err)
		}
	}
	for _, w := range reg.Workers() {
		if w.ID == "busy" && w.State != StateAlive {
			t.Errorf("busy worker demoted to %s by load shedding", w.State)
		}
	}
}

// TestDispatchQueueFullSkipsBackoff: a shed is an immediate answer from a
// healthy worker, so the re-route to the idle worker does not wait out the
// backoff (an hour here); a lost worker still does.
func TestDispatchQueueFullSkipsBackoff(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := newTestRegistry(clk)
	busy := testWorker(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":{"code":"queue_full","detail":"full"}}`))
	})
	idle := testWorker(t, okHandler("idle", nil))
	reg.Join("busy", busy.URL)
	reg.Join("idle", idle.URL)

	hour := retry.Schedule{Base: time.Hour, Cap: time.Hour, Jitter: -1}
	d := &Dispatcher{Registry: reg, MaxAttempts: 4, Backoff: hour}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		_, workerID, err := d.Do(ctx, fmt.Sprintf("key-%d", i), RunRequest{Kind: KindRetime})
		if err != nil || workerID != "idle" {
			t.Fatalf("Do(key-%d) = worker %q, err %v", i, workerID, err)
		}
	}

	gone := testWorker(t, okHandler("gone", nil))
	gone.Close()
	lossReg := newTestRegistry(clk)
	lossReg.Join("gone", gone.URL)
	lossReg.Join("idle", idle.URL)
	d = &Dispatcher{Registry: lossReg, MaxAttempts: 4, Backoff: hour}
	for i := 0; i < 8; i++ {
		sctx, scancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		_, _, err := d.Do(sctx, fmt.Sprintf("key-%d", i), RunRequest{Kind: KindRetime})
		scancel()
		if errors.Is(err, context.DeadlineExceeded) {
			return // the re-route after the loss waited for the backoff
		}
	}
	t.Fatal("no key re-routed after a lost worker (ring distribution collapsed?)")
}

// TestDispatchDefinitiveErrorPropagates: a deterministic job failure
// (infeasible input) is surfaced, not retried elsewhere.
func TestDispatchDefinitiveErrorPropagates(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := newTestRegistry(clk)
	var otherCalls atomic.Int64
	failing := testWorker(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		_, _ = w.Write([]byte(`{"error":{"code":"infeasible_period","detail":"no feasible retiming"}}`))
	})
	other := testWorker(t, okHandler("other", &otherCalls))
	reg.Join("failing", failing.URL)
	reg.Join("other", other.URL)

	d := &Dispatcher{Registry: reg, MaxAttempts: 4, Backoff: noJitter()}
	var sawDefinitive bool
	for i := 0; i < 16 && !sawDefinitive; i++ {
		_, _, err := d.Do(context.Background(), fmt.Sprintf("key-%d", i), RunRequest{Kind: KindRetime})
		var re *RemoteError
		if ok := errorsAs(err, &re); ok {
			if re.Code != "infeasible_period" || re.Retryable() {
				t.Fatalf("remote error = %+v", re)
			}
			sawDefinitive = true
		}
	}
	if !sawDefinitive {
		t.Fatal("no key routed to the failing worker (ring distribution collapsed?)")
	}
}

// TestDispatchUnavailable: an empty ring, and a ring whose only worker is
// unreachable, both end in ErrUnavailable — the degrade-to-local signal.
func TestDispatchUnavailable(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := newTestRegistry(clk)
	d := &Dispatcher{Registry: reg, MaxAttempts: 3, Backoff: noJitter()}
	if _, _, err := d.Do(context.Background(), "k", RunRequest{}); !errorsIs(err, ErrUnavailable) {
		t.Fatalf("empty ring: err = %v, want ErrUnavailable", err)
	}

	gone := testWorker(t, okHandler("gone", nil))
	gone.Close()
	reg.Join("gone", gone.URL)
	if _, _, err := d.Do(context.Background(), "k", RunRequest{}); !errorsIs(err, ErrUnavailable) {
		t.Fatalf("unreachable worker: err = %v, want ErrUnavailable", err)
	}

	// Canceled job context surfaces as the ctx error, not ErrUnavailable.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg.Join("w", gone.URL)
	if _, _, err := d.Do(ctx, "k", RunRequest{}); !errorsIs(err, context.Canceled) {
		t.Fatalf("canceled ctx: err = %v, want context.Canceled", err)
	}
}

func errorsIs(err, target error) bool           { return errors.Is(err, target) }
func errorsAs(err error, re **RemoteError) bool { return errors.As(err, re) }
