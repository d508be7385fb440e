package tenant

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// drain pops up to n jobs without blocking on an empty scheduler.
func drain(t *testing.T, s *Scheduler[int], n int) []string {
	t.Helper()
	var order []string
	for i := 0; i < n; i++ {
		if s.Len() == 0 {
			break
		}
		_, tenant, ok := s.Next()
		if !ok {
			t.Fatal("Next returned !ok before Close")
		}
		order = append(order, tenant)
		s.Release(tenant)
	}
	return order
}

func TestDRRAlternatesEqualWeights(t *testing.T) {
	s := NewScheduler[int](Config{}, 0)
	for i := 0; i < 4; i++ {
		if err := s.Enqueue("a", i); err != nil {
			t.Fatal(err)
		}
		if err := s.Enqueue("b", i); err != nil {
			t.Fatal(err)
		}
	}
	order := drain(t, s, 8)
	want := []string{"a", "b", "a", "b", "a", "b", "a", "b"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want strict alternation %v", order, want)
	}
}

func TestDRRWeightRatio(t *testing.T) {
	cfg := Config{Tenants: map[string]Limits{"heavy": {Weight: 3}}}
	s := NewScheduler[int](cfg, 0)
	for i := 0; i < 9; i++ {
		if err := s.Enqueue("heavy", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Enqueue("light", i); err != nil {
			t.Fatal(err)
		}
	}
	order := drain(t, s, 12)
	// Per rotation: heavy serves 3, light serves 1.
	want := []string{"heavy", "heavy", "heavy", "light", "heavy", "heavy", "heavy", "light", "heavy", "heavy", "heavy", "light"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestDRRNoCreditBanking(t *testing.T) {
	cfg := Config{Tenants: map[string]Limits{"bursty": {Weight: 5}}}
	s := NewScheduler[int](cfg, 0)
	// bursty's queue empties mid-quantum: its remaining deficit must vanish.
	if err := s.Enqueue("bursty", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("steady", 0); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, s, 2); fmt.Sprint(got) != "[bursty steady]" {
		t.Fatalf("warmup order = %v", got)
	}
	// Refill both; bursty must NOT get 5+4 banked serves — just its 5.
	for i := 0; i < 6; i++ {
		if err := s.Enqueue("bursty", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue("steady", 1); err != nil {
		t.Fatal(err)
	}
	order := drain(t, s, 7)
	steadyAt := -1
	for i, id := range order {
		if id == "steady" {
			steadyAt = i
			break
		}
	}
	if steadyAt < 0 || steadyAt > 5 {
		t.Errorf("steady served at index %d of %v; banked credit suspected", steadyAt, order)
	}
}

// TestStarvationFreedom is the DRR property test: with T tenants all
// backlogged, between two consecutive dispatches of any one tenant at most
// 2×Σ(other weights) other jobs are dispatched, and every backlogged tenant
// is served at least once per full rotation.
func TestStarvationFreedom(t *testing.T) {
	weights := map[string]int{"w1": 1, "w2": 2, "w5": 5, "x1": 1}
	cfg := Config{Tenants: map[string]Limits{}}
	sumW := 0
	for id, w := range weights {
		cfg.Tenants[id] = Limits{Weight: w}
		sumW += w
	}
	s := NewScheduler[int](cfg, 0)
	const perTenant = 200
	for id := range weights {
		for i := 0; i < perTenant; i++ {
			if err := s.Enqueue(id, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	order := drain(t, s, len(weights)*perTenant)
	last := map[string]int{}
	for i, id := range order {
		if prev, seen := last[id]; seen {
			gap := i - prev - 1 // other-tenant dispatches in between
			bound := 2 * (sumW - weights[id])
			if gap > bound {
				t.Fatalf("tenant %s (weight %d) starved: %d other dispatches between serves (bound %d)", id, weights[id], gap, bound)
			}
		}
		last[id] = i
	}
	// Throughput share ∝ weight while all stay backlogged: check the prefix
	// where every tenant still has work (first 4*min rounds is safe).
	counts := map[string]int{}
	for _, id := range order[:sumW*10] {
		counts[id]++
	}
	for id, w := range weights {
		want := w * 10
		if counts[id] != want {
			t.Errorf("tenant %s got %d of first %d dispatches, want %d (weight %d)", id, counts[id], sumW*10, want, w)
		}
	}
}

func TestQuotaMaxQueued(t *testing.T) {
	cfg := Config{Tenants: map[string]Limits{"capped": {MaxQueued: 2}}}
	s := NewScheduler[int](cfg, 0)
	if err := s.Enqueue("capped", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("capped", 1); err != nil {
		t.Fatal(err)
	}
	err := s.Enqueue("capped", 2)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Quota != QuotaQueued || qe.Limit != 2 || qe.Tenant != "capped" {
		t.Fatalf("third enqueue: err=%v", err)
	}
	// Other tenants are unaffected.
	if err := s.Enqueue("other", 0); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	// Dispatching frees quota space (queued, not in-flight).
	if _, _, ok := s.Next(); !ok {
		t.Fatal("Next !ok")
	}
	if err := s.Enqueue("capped", 2); err != nil {
		t.Fatalf("enqueue after dispatch: %v", err)
	}
}

func TestQuotaMaxBatch(t *testing.T) {
	cfg := Config{Tenants: map[string]Limits{"b": {MaxBatch: 3}}}
	s := NewScheduler[int](cfg, 0)
	err := s.Enqueue("b", []int{1, 2, 3, 4}...)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Quota != QuotaBatch || qe.Limit != 3 {
		t.Fatalf("oversize batch: err=%v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("rejected batch left %d jobs queued", s.Len())
	}
	if err := s.Enqueue("b", []int{1, 2, 3}...); err != nil {
		t.Fatalf("exact-size batch: %v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestBatchAtomicUnderMaxQueued(t *testing.T) {
	cfg := Config{Tenants: map[string]Limits{"b": {MaxQueued: 5}}}
	s := NewScheduler[int](cfg, 0)
	if err := s.Enqueue("b", []int{1, 2, 3}...); err != nil {
		t.Fatal(err)
	}
	// 3 queued + 3 more would exceed 5: all-or-nothing, none admitted.
	err := s.Enqueue("b", []int{4, 5, 6}...)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Quota != QuotaQueued {
		t.Fatalf("err=%v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("partial admission: Len = %d, want 3", s.Len())
	}
}

func TestGlobalCapacity(t *testing.T) {
	s := NewScheduler[int](Config{}, 2)
	if err := s.Enqueue("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("b", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("c", 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over capacity: err=%v, want ErrQueueFull", err)
	}
	// Batches respect capacity atomically too.
	if _, _, ok := s.Next(); !ok {
		t.Fatal("Next !ok")
	}
	if err := s.Enqueue("a", []int{1, 2}...); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("batch over capacity: err=%v", err)
	}
	// Restore also bounded by capacity.
	if !s.Restore("a", 9) {
		t.Fatal("Restore under capacity returned false")
	}
	if s.Restore("a", 10) {
		t.Fatal("Restore over capacity returned true")
	}
}

func TestRestoreBypassesQuotas(t *testing.T) {
	cfg := Config{Tenants: map[string]Limits{"t": {MaxQueued: 1}}}
	s := NewScheduler[int](cfg, 0)
	if err := s.Enqueue("t", 0); err != nil {
		t.Fatal(err)
	}
	// Replication/resume must never drop an already-admitted job.
	if !s.Restore("t", 1) {
		t.Fatal("Restore refused by per-tenant quota")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestMaxInFlightSkipsWithoutStalling(t *testing.T) {
	cfg := Config{Tenants: map[string]Limits{"capped": {MaxInFlight: 1}}}
	s := NewScheduler[int](cfg, 0)
	for i := 0; i < 3; i++ {
		if err := s.Enqueue("capped", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue("free", 0); err != nil {
		t.Fatal(err)
	}
	_, first, _ := s.Next() // capped's first job: now at its in-flight cap
	if first != "capped" {
		t.Fatalf("first dispatch = %s", first)
	}
	_, second, _ := s.Next() // capped skipped, free served
	if second != "free" {
		t.Fatalf("second dispatch = %s, want free (capped at in-flight cap)", second)
	}
	// With capped at its cap and free empty, Next must block until Release.
	got := make(chan string, 1)
	go func() {
		_, id, _ := s.Next()
		got <- id
	}()
	select {
	case id := <-got:
		t.Fatalf("Next returned %s while capped at in-flight cap", id)
	case <-time.After(50 * time.Millisecond):
	}
	s.Release("capped")
	select {
	case id := <-got:
		if id != "capped" {
			t.Fatalf("after Release got %s", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next still blocked after Release")
	}
}

func TestNextBlocksUntilEnqueue(t *testing.T) {
	s := NewScheduler[int](Config{}, 0)
	got := make(chan int, 1)
	go func() {
		v, _, _ := s.Next()
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("Next returned %d from empty scheduler", v)
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.Enqueue("a", 42); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next never woke")
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	s := NewScheduler[int](Config{}, 0)
	done := make(chan bool, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, _, ok := s.Next()
			done <- ok
		}()
	}
	time.Sleep(20 * time.Millisecond)
	s.Close()
	for i := 0; i < 3; i++ {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("Next ok=true after Close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("waiter not woken by Close")
		}
	}
}

func TestDrainAll(t *testing.T) {
	s := NewScheduler[int](Config{}, 0)
	for i := 0; i < 3; i++ {
		if err := s.Enqueue("a", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue("b", 100); err != nil {
		t.Fatal(err)
	}
	out := s.DrainAll()
	if len(out) != 4 || s.Len() != 0 {
		t.Fatalf("DrainAll = %v (Len now %d)", out, s.Len())
	}
	// a's FIFO order preserved.
	if out[0] != 0 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("FIFO order lost: %v", out)
	}
}

func TestSetConfigHotReload(t *testing.T) {
	s := NewScheduler[int](Config{Tenants: map[string]Limits{"t": {MaxQueued: 1}}}, 0)
	if err := s.Enqueue("t", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("t", 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("pre-reload: err=%v", err)
	}
	s.SetConfig(Config{Tenants: map[string]Limits{"t": {MaxQueued: 10}}})
	if err := s.Enqueue("t", 1); err != nil {
		t.Fatalf("post-reload: %v", err)
	}
	if got := s.Config().For("t").MaxQueued; got != 10 {
		t.Fatalf("Config().For(t).MaxQueued = %d", got)
	}
}

func TestStatsSnapshot(t *testing.T) {
	s := NewScheduler[int](Config{Tenants: map[string]Limits{"b": {Weight: 2}}}, 0)
	before := time.Now()
	if err := s.Enqueue("b", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue("a", 1); err != nil {
		t.Fatal(err)
	}
	if _, id, _ := s.Next(); id != "a" && id != "b" {
		t.Fatalf("Next = %s", id)
	}
	st := s.StatsSnapshot()
	if len(st) != 2 || st[0].Tenant != "a" || st[1].Tenant != "b" {
		t.Fatalf("snapshot = %+v", st)
	}
	if st[1].Weight != 2 {
		t.Errorf("b.Weight = %d", st[1].Weight)
	}
	total := st[0].Queued + st[1].Queued
	inflight := st[0].InFlight + st[1].InFlight
	if total != 2 || inflight != 1 {
		t.Errorf("queued=%d inflight=%d", total, inflight)
	}
	for _, x := range st {
		if x.Queued > 0 && x.OldestQueued.Before(before) {
			t.Errorf("%s.OldestQueued = %v before test start", x.Tenant, x.OldestQueued)
		}
	}
}

// TestConcurrentStress hammers every method from many goroutines; run under
// -race this is the scheduler's data-race test.
func TestConcurrentStress(t *testing.T) {
	cfg := Config{Tenants: map[string]Limits{"hot": {Weight: 3, MaxInFlight: 4}}}
	s := NewScheduler[int](cfg, 256)
	const producers, jobsPer = 8, 50
	var wg, prodWg sync.WaitGroup
	var admitted int64
	var admitMu sync.Mutex
	for p := 0; p < producers; p++ {
		prodWg.Add(1)
		go func(p int) {
			defer prodWg.Done()
			id := fmt.Sprintf("t%d", p%3)
			if p == 0 {
				id = "hot"
			}
			n := 0
			for i := 0; i < jobsPer; i++ {
				if err := s.Enqueue(id, i); err == nil {
					n++
				}
			}
			admitMu.Lock()
			admitted += int64(n)
			admitMu.Unlock()
		}(p)
	}
	var consumed int64
	var consMu sync.Mutex
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, id, ok := s.Next()
				if !ok {
					return
				}
				consMu.Lock()
				consumed++
				consMu.Unlock()
				s.Release(id)
			}
		}()
	}
	// Concurrent reloads and stats reads.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s.SetConfig(cfg)
				s.StatsSnapshot()
				s.Len()
			}
		}()
	}
	// Wait for every producer, then for the consumers to drain what was
	// admitted, then shut the consumers down.
	prodWg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for {
		consMu.Lock()
		c := consumed
		consMu.Unlock()
		if c == admitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stress did not drain: consumed %d of %d", c, admitted)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	wg.Wait()
	if consumed != admitted {
		t.Fatalf("consumed %d != admitted %d", consumed, admitted)
	}
}
