package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// jobTable is the server's record of every job, batch and idempotent
// submission. Its one mutex guards the maps and sequence numbers below, every
// batch event log, and every field of every Job it holds: nothing outside
// this file locks it, so a Job is read and written only through these
// methods.
//
// A batch has no persistent state of its own. Each member JobSpec carries the
// batch ID and total, and JobSpec is already the checkpoint format and the HA
// replication format, so a restarted or failed-over node rebuilds the batch
// member by member as the specs are restored (batchOf), with the total
// guarding against a partial rebuild reporting itself finished.
type jobTable struct {
	mu       sync.Mutex
	jobs     map[string]*Job
	seq      int
	batches  map[string]*batchRec
	batchSeq int
	idem     map[string]idemRecord

	batchesCompleted atomic.Int64
}

func newJobTable() *jobTable {
	return &jobTable{
		jobs:    make(map[string]*Job),
		batches: make(map[string]*batchRec),
		idem:    make(map[string]idemRecord),
	}
}

// newJob returns a queued, untracked job for spec.
func newJob(spec JobSpec, queuedAt time.Time) *Job {
	return &Job{Spec: spec, Status: StatusQueued, QueuedAt: queuedAt, done: make(chan struct{})}
}

// admit numbers specs with fresh job IDs — and, for a batch, one fresh batch
// ID and the member total — and tracks them as jobs queued at one instant.
// The caller enqueues the returned jobs, and forgets them if that fails.
func (t *jobTable) admit(specs []JobSpec, batch bool) []*Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	batchID := ""
	if batch {
		t.batchSeq++
		batchID = fmt.Sprintf("batch-%06d", t.batchSeq)
	}
	now := time.Now()
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		t.seq++
		spec.ID = fmt.Sprintf("job-%06d", t.seq)
		if batch {
			spec.Batch, spec.BatchTotal = batchID, len(specs)
		}
		jobs[i] = newJob(spec, now)
		t.jobs[spec.ID] = jobs[i]
		if batch {
			t.attach(jobs[i])
		}
	}
	return jobs
}

// add tracks a restored (resumed or replicated) job, keeping fresh job IDs
// past it and re-attaching it to its batch.
func (t *jobTable) add(job *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs[job.Spec.ID] = job
	if n, err := strconv.Atoi(strings.TrimPrefix(job.Spec.ID, "job-")); err == nil && n > t.seq {
		t.seq = n
	}
	if job.Spec.Batch != "" {
		t.attach(job)
	}
}

// forget unwinds an admission the scheduler refused: none of the jobs ever
// ran, so they and their batch vanish as if never submitted.
func (t *jobTable) forget(jobs []*Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, job := range jobs {
		delete(t.jobs, job.Spec.ID)
		delete(t.batches, job.Spec.Batch)
	}
}

// get returns the job with id, or nil.
func (t *jobTable) get(id string) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

// set applies update to job under the table lock; update only assigns Job
// fields.
func (t *jobTable) set(job *Job, update func(*Job)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	update(job)
}

// start marks job running.
func (t *jobTable) start(job *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	job.Status = StatusRunning
	job.StartedAt = time.Now()
	t.emit(job, batchEventDispatched)
}

// finish moves job to its terminal state — done when err is nil, otherwise
// failed with err's mapped body — and releases its waiters.
func (t *jobTable) finish(job *Job, err error) {
	t.mu.Lock()
	event := batchEventDone
	job.Status = StatusDone
	if err != nil {
		status, body := MapError(err)
		event, job.Status, job.Err, job.HTTP = batchEventFailed, StatusFailed, &body, status
	}
	job.FinishedAt = time.Now()
	t.emit(job, event)
	t.mu.Unlock()
	close(job.done)
}

// pendingSpecs returns, in ID order, the specs of every queued or running job
// and of every member of an unfinished batch — the HA replication snapshot,
// and (once the workers have exited) what graceful shutdown checkpoints.
//
// Finished members of an open batch are included because a standby or a
// restarted node rebuilds the batch purely from member specs: dropping them
// would leave a partial batch whose batch_done never fires. Re-running a
// finished member is wasteful but harmless — the engine is deterministic, so
// the rerun is byte-identical.
func (t *jobTable) pendingSpecs() []JobSpec {
	t.mu.Lock()
	specs := make([]JobSpec, 0, len(t.jobs))
	for _, job := range t.jobs {
		if job.Status == StatusQueued || job.Status == StatusRunning || t.batchOpen(job.Spec.Batch) {
			specs = append(specs, job.Spec)
		}
	}
	t.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	return specs
}

// view renders job with its result, and the HTTP status to serve it under:
// a failed job answers with its mapped status, so "GET a panicked job" is a
// 500 and "GET an infeasible job" a 422.
func (t *jobTable) view(job *Job) (jobView, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	status := http.StatusOK
	if job.Status == StatusFailed {
		status = job.HTTP
	}
	return render(job, true), status
}

// listedJob is one row of list: a light view and its admission instant.
type listedJob struct {
	view jobView
	nano int64
}

// list returns light views (no result payloads) of the jobs matching the
// optional status and tenant filters, in stable (queued_at, id) order: batch
// members share an admission instant, so the ID tiebreak is what keeps a
// listing cursor exact.
func (t *jobTable) list(status, tenantID string) []listedJob {
	t.mu.Lock()
	all := make([]listedJob, 0, len(t.jobs))
	for _, job := range t.jobs {
		if (status == "" || string(job.Status) == status) && (tenantID == "" || tenantOf(job.Spec) == tenantID) {
			all = append(all, listedJob{render(job, false), job.QueuedAt.UnixNano()})
		}
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].nano != all[j].nano {
			return all[i].nano < all[j].nano
		}
		return all[i].view.ID < all[j].view.ID
	})
	return all
}

// render is job's wire view; withResult controls whether the result payload
// (potentially a large netlist or a whole front) is included. Caller holds
// the lock.
func render(job *Job, withResult bool) jobView {
	view := jobView{
		ID:         job.Spec.ID,
		Kind:       job.Spec.Kind,
		Status:     job.Status,
		Tenant:     job.Spec.Tenant,
		Batch:      job.Spec.Batch,
		Worker:     job.Worker,
		FromStore:  job.FromStore,
		QueuedAt:   stamp(job.QueuedAt),
		StartedAt:  stamp(job.StartedAt),
		FinishedAt: stamp(job.FinishedAt),
		Progress:   job.Progress,
		Error:      job.Err,
	}
	if !job.StartedAt.IsZero() {
		view.WaitMS = job.StartedAt.Sub(job.QueuedAt).Milliseconds()
	}
	if withResult {
		view.Result = job.Result
	}
	return view
}

// batchView renders the aggregate of batch id.
func (t *jobTable) batchView(id string) (batchView, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.batches[id]
	if !ok {
		return batchView{}, false
	}
	view := batchView{
		ID:      b.id,
		Tenant:  b.tenant,
		Total:   b.total,
		Done:    b.terminal,
		Created: stamp(b.created),
		Counts:  map[string]int{},
		Events:  len(b.events),
	}
	for _, id := range b.members {
		if job, ok := t.jobs[id]; ok {
			view.Counts[string(job.Status)]++
			view.Jobs = append(view.Jobs, render(job, false))
		}
	}
	sort.Slice(view.Jobs, func(i, j int) bool { return view.Jobs[i].ID < view.Jobs[j].ID })
	return view, true
}

// batchEvents returns batch id's events from seq from on, a channel closed
// when the next event lands, and whether batch_done has fired; ok is false
// when there is no such batch.
func (t *jobTable) batchEvents(id string, from int) (events []batchEvent, next <-chan struct{}, finished, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.batches[id]
	if !ok {
		return nil, nil, false, false
	}
	if from < len(b.events) {
		events = append(events, b.events[from:]...)
	}
	return events, b.notify, b.doneFired, true
}

// idemGet returns the admission remembered under an idempotency key.
func (t *jobTable) idemGet(key string) (idemRecord, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.idem[key]
	return rec, ok
}

// idemPut remembers a successful admission under an idempotency key.
func (t *jobTable) idemPut(key string, rec idemRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.idem[key] = rec
}

// --- batch bookkeeping; every method below runs under t.mu ---

// batchOf returns the batch record for spec, creating it from the spec's own
// batch fields when absent: the first restored member rebuilds the batch
// shell, later members fill it in.
func (t *jobTable) batchOf(spec JobSpec) *batchRec {
	b, ok := t.batches[spec.Batch]
	if !ok {
		b = &batchRec{
			id:      spec.Batch,
			tenant:  tenantOf(spec),
			total:   spec.BatchTotal,
			member:  make(map[string]bool),
			created: time.Now(),
			notify:  make(chan struct{}),
		}
		t.batches[spec.Batch] = b
		// Keep fresh batch IDs past every rebuilt one.
		if n, err := strconv.Atoi(strings.TrimPrefix(spec.Batch, "batch-")); err == nil && n > t.batchSeq {
			t.batchSeq = n
		}
	}
	return b
}

// attach adds job to its batch (idempotently) and emits its queued event.
func (t *jobTable) attach(job *Job) {
	b := t.batchOf(job.Spec)
	if b.member[job.Spec.ID] {
		return
	}
	b.member[job.Spec.ID] = true
	b.members = append(b.members, job.Spec.ID)
	b.append(batchEvent{Event: batchEventQueued, Job: job.Spec.ID})
}

// batchOpen reports whether batchID names a batch that still has unfinished
// members (open batches replicate and checkpoint whole).
func (t *jobTable) batchOpen(batchID string) bool {
	if batchID == "" {
		return false
	}
	b, ok := t.batches[batchID]
	return ok && b.terminal < b.total
}

// emit appends job's lifecycle event to its batch stream (a no-op for jobs
// outside a batch) and fires batch_done when the last member lands.
func (t *jobTable) emit(job *Job, event string) {
	if job.Spec.Batch == "" {
		return
	}
	b := t.batchOf(job.Spec)
	if b.doneFired {
		return
	}
	ev := batchEvent{Event: event, Job: job.Spec.ID}
	switch event {
	case batchEventDone:
		ev.Worker = job.Worker
		if job.Result != nil {
			if rep := job.Result.Report; rep != nil {
				ev.PeriodPS = rep.PeriodAfterPS
				ev.Regs = rep.RegsAfter
			}
			if job.Result.Front != nil {
				ev.Points = len(job.Result.Front.Points)
			}
		}
		b.terminal++
	case batchEventFailed:
		if job.Err != nil {
			ev.Error = job.Err.Code
		}
		b.terminal++
	}
	b.append(ev)
	if b.terminal >= b.total {
		failed := 0
		for _, id := range b.members {
			if j, ok := t.jobs[id]; ok && j.Status == StatusFailed {
				failed++
			}
		}
		b.doneFired = true
		t.batchesCompleted.Add(1)
		b.append(batchEvent{Event: batchEventBatchDone, Total: b.total, Failed: failed})
	}
}
