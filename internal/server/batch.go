package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// This file is the batch half of the tenant subsystem: POST /v1/batch admits
// N job specs atomically under one tenant's quotas (through the same submit
// path as a single job), GET /v1/batch/{id} aggregates their status, and GET
// /v1/batch/{id}/events streams per-job lifecycle events (NDJSON, or SSE on
// Accept: text/event-stream). The batch records themselves live in the job
// table (table.go).

// batchRec tracks one batch: membership, completion, and the event log its
// streams replay. All fields are under the job table's lock. notify is closed
// and recreated whenever events grows — the broadcast that wakes every
// stream.
type batchRec struct {
	id       string
	tenant   string
	total    int
	members  []string // job IDs in submission order
	member   map[string]bool
	terminal int // members that reached done/failed
	created  time.Time

	events    []batchEvent
	notify    chan struct{}
	doneFired bool
}

// Batch event kinds, in lifecycle order.
const (
	batchEventQueued     = "queued"
	batchEventDispatched = "dispatched"
	batchEventDone       = "done"
	batchEventFailed     = "failed"
	batchEventBatchDone  = "batch_done"
)

// batchEvent is one NDJSON line of a batch event stream. Seq is contiguous
// from 0 within the batch, so a reconnecting client resumes with ?after=
// <last seq it saw> and misses nothing. No wall-clock fields: the stream for
// a given execution is deterministic in content, only its timing varies.
type batchEvent struct {
	Seq    int    `json:"seq"`
	Batch  string `json:"batch"`
	Event  string `json:"event"`
	Job    string `json:"job,omitempty"`
	Worker string `json:"worker,omitempty"` // done: cluster worker that ran it, if forwarded
	// Done result digest, so progress dashboards need no follow-up GET:
	// period/registers for retime members, point count for explore members.
	PeriodPS int64  `json:"period_ps,omitempty"`
	Regs     int    `json:"regs,omitempty"`
	Points   int    `json:"points,omitempty"`
	Error    string `json:"error,omitempty"` // failed: the mapped error code
	// batch_done carries the final tally.
	Total  int `json:"total,omitempty"`
	Failed int `json:"failed,omitempty"`
}

// append stamps the next seq, appends, and wakes every stream.
func (b *batchRec) append(ev batchEvent) {
	ev.Seq = len(b.events)
	ev.Batch = b.id
	b.events = append(b.events, ev)
	close(b.notify)
	b.notify = make(chan struct{})
}

// --- HTTP ---

// batchRequest is the POST /v1/batch envelope: up to the tenant's max_batch
// job specs admitted all-or-nothing.
type batchRequest struct {
	Jobs []batchJobSpec `json:"jobs"`
}

// batchJobSpec is one member: "retime" (or empty) and "explore" kinds reuse
// the single-job spec fields, so a member's result is byte-identical to the
// same spec POSTed alone.
type batchJobSpec struct {
	Kind       string     `json:"kind,omitempty"`
	BLIF       string     `json:"blif"`
	Options    JobOptions `json:"options"`
	Failpoints string     `json:"failpoints,omitempty"`
}

// batchView is the GET /v1/batch/{id} aggregate.
type batchView struct {
	ID      string         `json:"id"`
	Tenant  string         `json:"tenant"`
	Total   int            `json:"total"`
	Done    int            `json:"done"`
	Created string         `json:"created_at"`
	Counts  map[string]int `json:"counts"`
	Jobs    []jobView      `json:"jobs"`
	Events  int            `json:"events"` // current event count, for ?after=
}

// fenceStandby applies HA leader fencing to a submission: a standby answers
// with the leader hint and never enqueues. Reports true when the request was
// rejected (response written).
func (s *Server) fenceStandby(w http.ResponseWriter, r *http.Request) bool {
	if s.election == nil || s.election.IsLeader() {
		return false
	}
	s.haNotLeader.Add(1)
	if hint := s.election.LeaderURL(); hint != "" && hint != s.cfg.AdvertiseURL {
		w.Header().Set("Location", hint+r.URL.RequestURI())
		s.writeLeaderReject(w, http.StatusTemporaryRedirect, CodeNotLeader,
			"this coordinator is standby; submit to the leader")
	} else {
		s.writeLeaderReject(w, http.StatusServiceUnavailable, CodeNotLeader,
			"this coordinator is standby and knows no live leader")
	}
	return true
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	view, ok := s.table.batchView(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeBadRequest, "no such batch")
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleBatchEvents streams the batch's event log and then follows it live:
// NDJSON by default, SSE ("data: {...}\n\n" frames) when the client asks
// with Accept: text/event-stream. ?after=N resumes after seq N, so a
// reconnecting client replays exactly what it missed. The stream ends after
// batch_done, on client disconnect, or at server shutdown.
func (s *Server) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	pos, badAfter := 0, false
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		pos, badAfter = max(n+1, 0), err != nil || n < -1
	}
	pending, notify, finished, ok := s.table.batchEvents(id, pos)
	if !ok {
		writeError(w, http.StatusNotFound, CodeBadRequest, "no such batch")
		return
	}
	if badAfter {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "after must be the last seq received")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	for ok {
		for _, ev := range pending {
			if sse {
				fmt.Fprintf(w, "data: ")
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "\n")
			}
		}
		pos += len(pending)
		if flusher != nil {
			flusher.Flush()
		}
		if finished {
			return // batch_done was the last line
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		}
		pending, notify, finished, ok = s.table.batchEvents(id, pos)
	}
}

// --- autoscaling signals ---

// autoscaleTenant is one tenant's pressure contribution.
type autoscaleTenant struct {
	Tenant            string `json:"tenant"`
	Weight            int    `json:"weight"`
	Queued            int    `json:"queued"`
	InFlight          int    `json:"in_flight"`
	Dispatched        int64  `json:"dispatched"`
	QuotaRejects      int64  `json:"quota_rejects,omitempty"`
	OldestQueuedAgeMS int64  `json:"oldest_queued_age_ms"`
}

// autoscaleWorker is one cluster worker's serving record (coordinator only).
type autoscaleWorker struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	RunsServed int64  `json:"runs_served"`
	Failures   int64  `json:"failures,omitempty"`
}

// handleAutoscale is GET /v1/cluster/autoscale: the demand signals an
// external autoscaler needs, derived from per-tenant queue depth, the age of
// the oldest queued job, and per-worker runs_served. desired_workers is the
// simple ceiling of outstanding work over per-node slots — advisory, not a
// promise.
func (s *Server) handleAutoscale(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	stats := s.sched.StatsSnapshot()
	queued := 0
	var oldestAge int64
	tenants := make([]autoscaleTenant, 0, len(stats))
	for _, st := range stats {
		queued += st.Queued
		var age int64
		if !st.OldestQueued.IsZero() {
			age = now.Sub(st.OldestQueued).Milliseconds()
			if age > oldestAge {
				oldestAge = age
			}
		}
		tenants = append(tenants, autoscaleTenant{
			Tenant:            st.Tenant,
			Weight:            st.Weight,
			Queued:            st.Queued,
			InFlight:          st.InFlight,
			Dispatched:        st.Dispatched,
			QuotaRejects:      st.QuotaRejects,
			OldestQueuedAgeMS: age,
		})
	}
	inflight := s.inflight.Load()
	outstanding := int64(queued) + inflight
	slots := int64(s.cfg.Workers)
	desired := (outstanding + slots - 1) / slots
	if desired < 1 {
		desired = 1
	}
	view := struct {
		QueuedTotal       int               `json:"queued_total"`
		InFlight          int64             `json:"in_flight"`
		OldestQueuedAgeMS int64             `json:"oldest_queued_age_ms"`
		SlotsPerWorker    int               `json:"slots_per_worker"`
		DesiredWorkers    int64             `json:"desired_workers"`
		Tenants           []autoscaleTenant `json:"tenants"`
		Workers           []autoscaleWorker `json:"workers,omitempty"`
	}{
		QueuedTotal:       queued,
		InFlight:          inflight,
		OldestQueuedAgeMS: oldestAge,
		SlotsPerWorker:    s.cfg.Workers,
		DesiredWorkers:    desired,
		Tenants:           tenants,
	}
	if s.registry != nil {
		for _, info := range s.registry.Workers() {
			view.Workers = append(view.Workers, autoscaleWorker{
				ID:         info.ID,
				State:      string(info.State),
				RunsServed: info.Forwarded,
				Failures:   info.Failures,
			})
		}
	}
	writeJSON(w, http.StatusOK, view)
}
