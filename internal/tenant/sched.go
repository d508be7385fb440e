package tenant

import (
	"sort"
	"sync"
	"time"
)

// Scheduler is a weighted deficit-round-robin job queue shared by N tenants.
// Each tenant owns a FIFO; Enqueue admits under that tenant's quotas (and the
// global capacity), and Next dispenses the next job in DRR order: a rotating
// cursor visits tenant queues, each visit refills the tenant's deficit by its
// weight, and one unit of deficit buys one dispatch. A tenant whose queue
// empties forfeits its remaining deficit (no banking credit while idle), and
// a tenant at its in-flight cap is skipped without losing its turn.
//
// With unit job cost this reduces to weighted round-robin — two backlogged
// tenants of equal weight alternate strictly — which is what makes the
// starvation bound tight: between two consecutive dispatches of a backlogged,
// under-cap tenant, at most 2×Σ(other weights) other jobs are dispatched
// (each other tenant can spend at most its refill plus one banked deficit).
//
// All methods are safe for concurrent use. The zero value is not usable;
// construct with NewScheduler.
type Scheduler[T any] struct {
	mu       sync.Mutex
	cond     *sync.Cond
	cfg      Config
	capacity int // global queued-job bound; <=0 = unlimited
	closed   bool

	queues map[string]*tenantQueue[T]
	ring   []string // tenant IDs in activation order; grows, never shrinks
	cursor int
	total  int // jobs queued across all tenants
}

type tenantQueue[T any] struct {
	id         string
	jobs       []entry[T]
	deficit    int
	inflight   int
	dispatched int64
	rejects    int64
}

type entry[T any] struct {
	v  T
	at time.Time
}

// NewScheduler returns an empty scheduler. capacity bounds the total queued
// jobs across all tenants (<=0 for unlimited); cfg supplies per-tenant
// weights and quotas and may be replaced later with SetConfig.
func NewScheduler[T any](cfg Config, capacity int) *Scheduler[T] {
	s := &Scheduler[T]{
		cfg:      cfg,
		capacity: capacity,
		queues:   make(map[string]*tenantQueue[T]),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// SetConfig hot-swaps the tenant table. Jobs already queued stay queued (a
// tightened MaxQueued only affects future admissions); deficits are reset so
// no tenant carries credit earned under the old weights, and waiters are
// woken in case a loosened in-flight cap unblocked a dispatch.
func (s *Scheduler[T]) SetConfig(cfg Config) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg = cfg
	for _, q := range s.queues {
		q.deficit = 0
	}
	s.cond.Broadcast()
}

// Config returns the current tenant table.
func (s *Scheduler[T]) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

func (s *Scheduler[T]) queueLocked(id string) *tenantQueue[T] {
	q, ok := s.queues[id]
	if !ok {
		q = &tenantQueue[T]{id: id}
		s.queues[id] = q
		s.ring = append(s.ring, id)
	}
	return q
}

// Enqueue admits all of vs for tenant id or none of them, rejecting with a
// *QuotaError (per-tenant max_batch when vs holds several jobs, or
// max_queued) or ErrQueueFull (global capacity). The quotas and the capacity
// are checked against all of vs atomically with the admission, so concurrent
// submitters cannot oversubscribe and a partially admitted batch can never
// exist.
func (s *Scheduler[T]) Enqueue(id string, vs ...T) error {
	return s.enqueue(id, vs, true)
}

// Restore re-admits a resumed or replicated job, bypassing per-tenant quotas
// (the job was already admitted once; refusing it now would lose it) but
// respecting the global capacity. It reports false when capacity is reached —
// the caller leaves the job checkpointed for a later resume.
func (s *Scheduler[T]) Restore(id string, v T) bool {
	return s.enqueue(id, []T{v}, false) == nil
}

func (s *Scheduler[T]) enqueue(id string, vs []T, quotas bool) error {
	if len(vs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queueLocked(id)
	if quotas {
		lim := s.cfg.For(id)
		if len(vs) > 1 && lim.MaxBatch > 0 && len(vs) > lim.MaxBatch {
			q.rejects++
			return &QuotaError{Tenant: id, Quota: QuotaBatch, Limit: lim.MaxBatch}
		}
		if lim.MaxQueued > 0 && len(q.jobs)+len(vs) > lim.MaxQueued {
			q.rejects++
			return &QuotaError{Tenant: id, Quota: QuotaQueued, Limit: lim.MaxQueued}
		}
	}
	if s.capacity > 0 && s.total+len(vs) > s.capacity {
		return ErrQueueFull
	}
	now := time.Now()
	for _, v := range vs {
		q.jobs = append(q.jobs, entry[T]{v: v, at: now})
	}
	s.total += len(vs)
	s.cond.Broadcast()
	return nil
}

// Next blocks until a job is dispatchable (or the scheduler is closed) and
// returns it with its tenant ID. The tenant's in-flight count is incremented;
// the caller must Release(tenant) when the job reaches a terminal state. ok
// is false only after Close.
func (s *Scheduler[T]) Next() (v T, tenant string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			var zero T
			return zero, "", false
		}
		if v, tenant, ok := s.pickLocked(); ok {
			return v, tenant, true
		}
		s.cond.Wait()
	}
}

// pickLocked runs one DRR scan from the cursor. Caller holds s.mu.
func (s *Scheduler[T]) pickLocked() (T, string, bool) {
	var zero T
	n := len(s.ring)
	for i := 0; i < n; i++ {
		idx := (s.cursor + i) % n
		q := s.queues[s.ring[idx]]
		if len(q.jobs) == 0 {
			continue
		}
		lim := s.cfg.For(q.id)
		if lim.MaxInFlight > 0 && q.inflight >= lim.MaxInFlight {
			continue // skipped, not charged: it keeps its turn for later
		}
		if q.deficit < 1 {
			q.deficit += lim.Weight // weight >= 1, so one refill always serves
		}
		q.deficit--
		e := q.jobs[0]
		q.jobs = q.jobs[1:]
		s.total--
		q.inflight++
		q.dispatched++
		if len(q.jobs) == 0 {
			q.deficit = 0 // idle tenants bank no credit
		}
		if q.deficit < 1 {
			s.cursor = (idx + 1) % n // turn spent: move on
		} else {
			s.cursor = idx // weight remaining: finish this tenant's quantum
		}
		return e.v, q.id, true
	}
	return zero, "", false
}

// Release records that one of tenant id's dispatched jobs reached a terminal
// state, freeing an in-flight slot.
func (s *Scheduler[T]) Release(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.queues[id]; ok && q.inflight > 0 {
		q.inflight--
		s.cond.Broadcast()
	}
}

// Close wakes every Next waiter with ok=false. Queued jobs are retained for
// DrainAll; further Enqueues still admit (they will only ever be drained).
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}

// DrainAll removes and returns every queued job, in ring order then FIFO
// within a tenant. Used by graceful shutdown to checkpoint what never ran.
func (s *Scheduler[T]) DrainAll() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []T
	for _, id := range s.ring {
		q := s.queues[id]
		for _, e := range q.jobs {
			out = append(out, e.v)
		}
		q.jobs = nil
		q.deficit = 0
	}
	s.total = 0
	return out
}

// Len is the total queued (not yet dispatched) job count.
func (s *Scheduler[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Stats is one tenant's scheduling snapshot, for metrics and autoscaling.
type Stats struct {
	Tenant       string
	Weight       int
	Queued       int
	InFlight     int
	Dispatched   int64
	QuotaRejects int64
	// OldestQueued is the enqueue time of the tenant's oldest waiting job
	// (zero when none wait) — the age signal autoscaling keys on.
	OldestQueued time.Time
}

// StatsSnapshot returns per-tenant stats for every tenant ever seen, sorted
// by tenant ID.
func (s *Scheduler[T]) StatsSnapshot() []Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stats, 0, len(s.queues))
	for id, q := range s.queues {
		st := Stats{
			Tenant:       id,
			Weight:       s.cfg.For(id).Weight,
			Queued:       len(q.jobs),
			InFlight:     q.inflight,
			Dispatched:   q.dispatched,
			QuotaRejects: q.rejects,
		}
		if len(q.jobs) > 0 {
			st.OldestQueued = q.jobs[0].at
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
