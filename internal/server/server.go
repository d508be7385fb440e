// Package server implements mcretimed, the long-running retiming service:
// an HTTP JSON API over the mc-retiming engine built for fault tolerance
// under concurrent, adversarial load.
//
// The robustness mechanisms, in the order a request meets them:
//
//   - Admission control: a bounded job queue; a full queue sheds load with
//     429 + Retry-After instead of growing without bound.
//   - Early validation: the BLIF body and options are parsed at submission,
//     so malformed input fails fast with 400 and never occupies a worker.
//   - Per-job deadlines: every job runs under a context deadline wired into
//     the engine's cooperative cancellation (core.RetimeCtx).
//   - Panic isolation: a crashing job — whether inside a pipeline pass
//     (recovered as pass.PanicError) or anywhere else in the job path
//     (recovered here) — fails that one job with 500; the daemon keeps
//     serving.
//   - Budget retry: a job failing with rterr.ErrBudgetExceeded is re-run
//     after exponential backoff with budgets relaxed one ladder rung
//     (core.Budgets.Relaxed), and the eventual success is annotated in
//     Report.Degraded.
//   - Graceful shutdown: draining rejects new work (503), lets in-flight
//     jobs finish, and checkpoints still-queued job specs to disk; a
//     restarted server resumes them in order, producing bit-identical
//     results to an uninterrupted run.
//
// Failure classification is shared with the CLIs: every engine sentinel of
// internal/rterr maps to a stable {code, detail} error body and HTTP status
// (see errmap.go).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcretiming/internal/blif"
	"mcretiming/internal/cluster"
	"mcretiming/internal/core"
	"mcretiming/internal/explore"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/graph"
	"mcretiming/internal/netlist"
	"mcretiming/internal/retry"
	"mcretiming/internal/rterr"
	"mcretiming/internal/store"
	"mcretiming/internal/tenant"
	"mcretiming/internal/trace"
)

// Config tunes the service. The zero value gets sensible defaults from New.
type Config struct {
	// QueueSize bounds the number of jobs waiting to run (default 64).
	// Submissions beyond it are shed with 429.
	QueueSize int
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// DefaultTimeout is the per-job deadline when the job does not set one
	// (default 60s). Negative means no default deadline.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps the request body (default 16 MiB).
	MaxBodyBytes int64
	// CheckpointDir, when non-empty, is where graceful shutdown persists
	// queued job specs and where Start resumes them from.
	CheckpointDir string
	// RetryMax is how many budget-relaxing retries a job failing with
	// ErrBudgetExceeded gets (default 2). Negative disables retries.
	RetryMax int
	// RetryBase is the exponential backoff base delay (default 100ms).
	RetryBase time.Duration
	// EnableFailpoints accepts the "failpoints" field on submissions,
	// arming the named sites for that job only. Chaos testing only —
	// leave off in production.
	EnableFailpoints bool
	// StoreDir, when non-empty, opens a persistent content-addressed result
	// store there (internal/store): exploration jobs load solved points from
	// it across requests and restarts, and /metrics exports its hit/miss
	// counters.
	StoreDir string

	// Tenants is the initial tenant table: per-tenant DRR weights and
	// admission quotas (see internal/tenant). The zero value admits every
	// tenant at unit weight with no quotas.
	Tenants tenant.Config
	// TenantsFile, when non-empty, is a JSON tenant table loaded at Start
	// (overriding Tenants) and re-read by ReloadTenants — cmd/mcretimed
	// wires that to SIGHUP for hot reload.
	TenantsFile string

	// Coordinator enables the cluster control plane: the join/heartbeat/
	// workers endpoints, the shared-store endpoints, and job dispatch to
	// registered workers. With zero healthy workers a coordinator behaves
	// exactly like a single-node daemon.
	Coordinator bool
	// JoinURL, when non-empty, runs this node as a worker of the coordinator
	// at that base URL: it joins, heartbeats, and serves forwarded runs.
	JoinURL string
	// AdvertiseURL is the base URL the coordinator should dial this worker
	// back on (required with JoinURL).
	AdvertiseURL string
	// WorkerID is this worker's stable cluster identity (default:
	// AdvertiseURL). Keeping it stable across restarts preserves the
	// worker's hash-ring position, so its warm store keys keep routing here.
	WorkerID string
	// LeaseTTL is the coordinator's heartbeat lease (default 6s): a worker
	// silent for LeaseTTL turns suspect, for 3×LeaseTTL dead.
	LeaseTTL time.Duration
	// HeartbeatInterval is the worker's beat cadence (default LeaseTTL/3).
	HeartbeatInterval time.Duration
	// RemoteStoreURL, when non-empty, layers a remote store tier (typically
	// the coordinator's /v1/store endpoints) behind the local StoreDir; with
	// no StoreDir the node runs diskless against the remote alone. Remote
	// failures degrade to misses, never wrong answers.
	RemoteStoreURL string
	// PeerURL, when non-empty, pairs this coordinator with another for HA:
	// the node boots standby, replicates the leader's jobs and store writes,
	// and campaigns for the lease when the leader provably dies. Requires
	// Coordinator and AdvertiseURL.
	PeerURL string
	// ElectionTimeout is how long a standby tolerates lease silence before
	// probing the peer and (on positive evidence) campaigning (default
	// 3×LeaseTTL).
	ElectionTimeout time.Duration
	// TermFile is where the leader term is fsynced (default: "ha-term" in
	// CheckpointDir, then StoreDir; in-memory only when neither is set —
	// acceptable for tests, not production).
	TermFile string
	// DispatchAttempts bounds how many workers a job is offered before the
	// coordinator degrades to local execution (default 3).
	DispatchAttempts int
	// DispatchTimeout bounds each forward attempt (default 60s).
	DispatchTimeout time.Duration
	// Logf receives operational log lines (default log.Printf; set to a
	// no-op to silence).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 6 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.LeaseTTL / 3
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the retiming service. Create with New, launch with Start, serve
// Handler over any http.Server, stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*Job
	seq      int
	started  bool
	draining bool
	parked   []*Job // dequeued after draining began; checkpointed, not run

	// Batch and idempotency state, under mu. batches is rebuilt from member
	// JobSpecs on resume/takeover (the spec carries batch ID + total), so it
	// needs no checkpoint or replication format of its own.
	batches  map[string]*batchRec
	batchSeq int
	idem     map[string]idemRecord

	// sched replaced the single FIFO channel in PR 10: per-tenant queues
	// dispensed in weighted deficit-round-robin order, with per-tenant
	// admission quotas. Lock order: s.mu is never held while calling a
	// blocking scheduler method (Next); non-blocking calls are fine.
	sched    *tenant.Scheduler[*Job]
	stop     chan struct{}
	wg       sync.WaitGroup
	inflight atomic.Int64
	store    *store.Store // nil when neither StoreDir nor RemoteStoreURL is set

	// Cluster state. registry and dispatcher are non-nil only on a
	// coordinator; runSem admits forwarded runs on any node; points is the
	// worker-side per-point solver with its warm Prepared cache.
	registry   *cluster.Registry
	dispatcher *cluster.Dispatcher
	runSem     chan struct{}
	points     explore.PointSolver

	// HA pair state. election is non-nil only on a coordinator configured
	// with a PeerURL. haSpecs is the standby's replicated job snapshot (under
	// haMu), resumed on takeover. The worker-side trio below tracks which
	// coordinator (and term) this worker currently follows.
	election *cluster.Election
	haMu     sync.Mutex
	haSpecs  []JobSpec

	workerTerm  atomic.Uint64
	leaderMu    sync.Mutex
	leaderKnown string // base URL this worker heartbeats (learned leader)
	leaderPeer  string // the leader's peer, tried next on failover

	submitted, completed, failed, rejected, retried, panics, resumed atomic.Int64
	dispatched, clusterFallback, clusterRuns, remotePoints           atomic.Int64
	checkpointErrs                                                   atomic.Int64
	haReplJobs, haReplStore, haNotLeader, haTakeoverJobs             atomic.Int64
	quotaRejected, batchesSubmitted, batchesCompleted, batchJobs     atomic.Int64
	idemReplays                                                      atomic.Int64

	cntMu    sync.Mutex
	counters map[string]int64 // aggregated engine trace counters
}

// New returns an unstarted server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		jobs:     make(map[string]*Job),
		batches:  make(map[string]*batchRec),
		idem:     make(map[string]idemRecord),
		sched:    tenant.NewScheduler[*Job](cfg.Tenants, cfg.QueueSize),
		stop:     make(chan struct{}),
		counters: make(map[string]int64),
	}
	s.runSem = make(chan struct{}, cfg.Workers)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/retime", s.handleSubmit)
	mux.HandleFunc("POST /v1/explore", s.handleExplore)
	mux.HandleFunc("POST /v1/batch", s.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batch/{id}", s.handleBatch)
	mux.HandleFunc("GET /v1/batch/{id}/events", s.handleBatchEvents)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/cluster/run", s.handleClusterRun)
	mux.HandleFunc("GET /v1/cluster/autoscale", s.handleAutoscale)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Coordinator {
		s.registry = cluster.NewRegistry(cluster.RegistryConfig{
			LeaseTTL: cfg.LeaseTTL,
			Logf:     cfg.Logf,
		})
		s.dispatcher = &cluster.Dispatcher{
			Registry:       s.registry,
			AttemptTimeout: cfg.DispatchTimeout,
			MaxAttempts:    cfg.DispatchAttempts,
			Logf:           cfg.Logf,
		}
		mux.HandleFunc("POST /v1/cluster/join", s.handleClusterJoin)
		mux.HandleFunc("POST /v1/cluster/heartbeat", s.handleClusterHeartbeat)
		mux.HandleFunc("GET /v1/cluster/workers", s.handleClusterWorkers)
		mux.HandleFunc("GET /v1/store/{key}", s.handleStoreGet)
		mux.HandleFunc("PUT /v1/store/{key}", s.handleStorePut)
		mux.HandleFunc("GET /v1/cluster/leader", s.handleClusterLeader)
		mux.HandleFunc("POST /v1/cluster/campaign", s.handleClusterCampaign)
		mux.HandleFunc("POST /v1/cluster/replicate/jobs", s.handleReplicateJobs)
		mux.HandleFunc("POST /v1/cluster/replicate/store", s.handleReplicateStore)
	}
	s.mux = mux
	return s
}

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start opens the result store (if configured), wires the HA election (if a
// peer is configured), resumes any checkpointed jobs (leaders and solo nodes
// only — a standby resumes at takeover), and launches the worker pool.
func (s *Server) Start() error {
	if s.cfg.PeerURL != "" {
		if !s.cfg.Coordinator {
			return fmt.Errorf("server: a peer requires coordinator mode (only coordinators form an HA pair)")
		}
		if s.cfg.AdvertiseURL == "" {
			return fmt.Errorf("server: an HA coordinator needs an advertise URL (the peer and workers must dial back)")
		}
	}
	if s.cfg.TenantsFile != "" {
		cfg, err := tenant.LoadFile(s.cfg.TenantsFile)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		s.sched.SetConfig(cfg)
	}
	if s.cfg.StoreDir != "" {
		st, err := store.Open(s.cfg.StoreDir)
		if err != nil {
			return fmt.Errorf("server: open result store: %w", err)
		}
		s.store = st
	}
	if s.cfg.RemoteStoreURL != "" {
		// Worker writes to the shared tier carry the leader term this worker
		// last joined under, so a term-fenced coordinator can refuse writers
		// with a stale view of the pair.
		remote := store.NewRemote(s.cfg.RemoteStoreURL, nil).WithTermSource(s.workerTerm.Load)
		if s.store != nil {
			s.store = s.store.WithRemote(remote)
		} else {
			s.store = store.RemoteOnly(remote)
		}
	}
	if s.cfg.PeerURL != "" {
		el, err := cluster.NewElection(cluster.ElectionConfig{
			SelfID:          s.selfID(),
			SelfURL:         s.cfg.AdvertiseURL,
			PeerURL:         s.cfg.PeerURL,
			TermPath:        s.termPath(),
			LeaseTTL:        s.cfg.LeaseTTL,
			ElectionTimeout: s.cfg.ElectionTimeout,
			Logf:            s.cfg.Logf,
			OnLead:          s.takeover,
			OnStepDown:      s.steppedDown,
			SnapshotJobs:    s.snapshotJobs,
		})
		if err != nil {
			return fmt.Errorf("server: election: %w", err)
		}
		s.election = el
		// Every local store write replicates to the standby (leaders only;
		// the election drops the tap while standby, so applied replicas are
		// never echoed back).
		if s.store != nil {
			s.store.WithOnSave(el.ReplicateStore)
		}
	}
	if s.election == nil {
		if err := s.resume(); err != nil {
			return fmt.Errorf("server: resume checkpoints: %w", err)
		}
	}
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.JoinURL != "" {
		if s.cfg.AdvertiseURL == "" {
			return fmt.Errorf("server: worker mode needs an advertise URL (the coordinator must dial back)")
		}
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	if s.election != nil {
		s.election.Start()
	}
	return nil
}

// selfID is this node's stable cluster identity (worker or HA coordinator).
func (s *Server) selfID() string {
	if s.cfg.WorkerID != "" {
		return s.cfg.WorkerID
	}
	return s.cfg.AdvertiseURL
}

// ReloadTenants re-reads the tenant table from Config.TenantsFile and
// hot-swaps it into the scheduler; a no-op without a file, and a malformed
// file leaves the running table untouched. cmd/mcretimed calls this on
// SIGHUP.
func (s *Server) ReloadTenants() error {
	if s.cfg.TenantsFile == "" {
		return nil
	}
	cfg, err := tenant.LoadFile(s.cfg.TenantsFile)
	if err != nil {
		return err
	}
	s.sched.SetConfig(cfg)
	s.logf("server: reloaded tenant table from %s", s.cfg.TenantsFile)
	return nil
}

// tenantOf is the effective scheduling tenant of a spec: the default tenant
// when the spec carries none (pre-tenant checkpoints, header-less clients).
func tenantOf(spec JobSpec) string {
	if spec.Tenant == "" {
		return tenant.DefaultTenant
	}
	return spec.Tenant
}

// termPath is where the HA term is persisted: the configured TermFile, else
// "ha-term" next to the checkpoints (it has no .json suffix, so checkpoint
// loading never confuses it for a job spec), else in the store directory.
func (s *Server) termPath() string {
	if s.cfg.TermFile != "" {
		return s.cfg.TermFile
	}
	if s.cfg.CheckpointDir != "" {
		return filepath.Join(s.cfg.CheckpointDir, "ha-term")
	}
	if s.cfg.StoreDir != "" {
		return filepath.Join(s.cfg.StoreDir, "ha-term")
	}
	return ""
}

// resume loads checkpointed job specs (in ID order) back into the queue and
// removes their files. Specs beyond the queue capacity stay on disk for a
// later restart rather than being dropped, and corrupt specs are skipped
// (counted, logged) rather than aborting the healthy ones.
func (s *Server) resume() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	specs, err := loadCheckpoints(s.cfg.CheckpointDir, s.badCheckpoint)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		if !s.enqueueSpec(spec) {
			return nil // queue full: leave this and later specs checkpointed
		}
		s.removeCheckpoint(s.cfg.CheckpointDir, spec.ID)
	}
	return nil
}

// badCheckpoint records one corrupt checkpoint file: counted in
// mcretimed_checkpoint_errors and logged, never fatal to the resume.
func (s *Server) badCheckpoint(name string, err error) {
	s.checkpointErrs.Add(1)
	s.logf("server: skipping corrupt checkpoint %s: %v (resuming the rest)", name, err)
}

// enqueueSpec places a resumed or replicated job spec on the queue (via the
// scheduler's quota-free Restore path — the job was admitted once already).
// It reports false when the global capacity is reached (callers leave the
// spec checkpointed). A spec whose ID is already tracked is a no-op success:
// re-admitting it would run the job twice for nothing (the result would be
// byte-identical, but the duplicate would still burn a worker). Specs that
// belong to a batch re-attach to it, rebuilding the batch record as members
// arrive.
func (s *Server) enqueueSpec(spec JobSpec) bool {
	s.mu.Lock()
	_, exists := s.jobs[spec.ID]
	s.mu.Unlock()
	if exists {
		return true
	}
	job := &Job{Spec: spec, Status: StatusQueued, QueuedAt: time.Now(), done: make(chan struct{})}
	if !s.sched.Restore(tenantOf(spec), job) {
		return false
	}
	s.mu.Lock()
	s.jobs[spec.ID] = job
	// Keep fresh IDs past every resumed one.
	if n, err := strconv.Atoi(strings.TrimPrefix(spec.ID, "job-")); err == nil && n > s.seq {
		s.seq = n
	}
	if spec.Batch != "" {
		s.attachBatchJobLocked(job)
	}
	s.mu.Unlock()
	s.resumed.Add(1)
	return true
}

// --- HA pair lifecycle ---

// snapshotJobs renders every queued and running job spec, in ID order, as the
// replication payload — the same JSON shape the checkpoint files hold, so the
// checkpoint format is the wire format.
//
// Members of an unfinished batch are included even after they finish: a
// standby rebuilds the batch purely from member specs, so dropping finished
// members would leave it a partial batch whose batch_done never fires.
// Re-running a finished member after takeover is wasteful but harmless — the
// engine is deterministic, so the rerun is byte-identical.
func (s *Server) snapshotJobs() json.RawMessage {
	s.mu.Lock()
	specs := make([]JobSpec, 0, len(s.jobs))
	for _, job := range s.jobs {
		if job.Status == StatusQueued || job.Status == StatusRunning || s.batchOpenLocked(job.Spec.Batch) {
			specs = append(specs, job.Spec)
		}
	}
	s.mu.Unlock()
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	data, err := json.Marshal(specs)
	if err != nil {
		return nil
	}
	return data
}

// applyReplicatedJobs installs the leader's job snapshot on this standby: in
// memory (resumed at takeover) and, when a checkpoint dir is configured, on
// disk in the ordinary checkpoint format — so a standby that restarts before
// taking over still holds the jobs, and takeover is just resume. Checkpoints
// of jobs no longer in the leader's snapshot (they finished) are removed;
// the term file has no .json suffix and is never touched.
func (s *Server) applyReplicatedJobs(raw json.RawMessage) (int, error) {
	var specs []JobSpec
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &specs); err != nil {
			return 0, err
		}
	}
	s.haMu.Lock()
	s.haSpecs = specs
	s.haMu.Unlock()
	if s.cfg.CheckpointDir != "" {
		want := make(map[string]bool, len(specs))
		for _, spec := range specs {
			want[spec.ID] = true
			if err := checkpointJob(s.cfg.CheckpointDir, spec); err != nil {
				s.checkpointErrs.Add(1)
				s.logf("server: mirroring replicated job %s: %v", spec.ID, err)
			}
		}
		if entries, err := os.ReadDir(s.cfg.CheckpointDir); err == nil {
			for _, ent := range entries {
				name := ent.Name()
				if !strings.HasSuffix(name, ".json") {
					continue
				}
				if id := strings.TrimSuffix(name, ".json"); !want[id] {
					s.removeCheckpoint(s.cfg.CheckpointDir, id)
				}
			}
		}
	}
	return len(specs), nil
}

// takeover runs when this node wins the lease: resume the union of the
// replicated snapshot and any surviving disk checkpoints (deduplicated by job
// ID, in ID order). Admitting a job the old leader actually finished is
// wasteful but harmless — deterministic re-execution makes the rerun
// byte-identical — and admitting one it never finished is exactly the point.
func (s *Server) takeover(term uint64) {
	s.haMu.Lock()
	specs := append([]JobSpec(nil), s.haSpecs...)
	s.haMu.Unlock()
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		seen[spec.ID] = true
	}
	if s.cfg.CheckpointDir != "" {
		if disk, err := loadCheckpoints(s.cfg.CheckpointDir, s.badCheckpoint); err == nil {
			for _, spec := range disk {
				if !seen[spec.ID] {
					seen[spec.ID] = true
					specs = append(specs, spec)
				}
			}
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	resumed := 0
	for _, spec := range specs {
		if !s.enqueueSpec(spec) {
			// Queue full: park the spec on disk for a later resume instead of
			// dropping it.
			if s.cfg.CheckpointDir != "" {
				if err := checkpointJob(s.cfg.CheckpointDir, spec); err != nil {
					s.checkpointErrs.Add(1)
				}
			}
			continue
		}
		if s.cfg.CheckpointDir != "" {
			s.removeCheckpoint(s.cfg.CheckpointDir, spec.ID)
		}
		resumed++
	}
	s.haTakeoverJobs.Add(int64(resumed))
	s.logf("server: HA takeover at term %d: resumed %d replicated job(s)", term, resumed)
}

// steppedDown runs when this node loses the lease to a higher term. Jobs
// already queued or running here are left to finish: their results are
// byte-identical to the new leader's reruns, so the overlap is unobservable.
func (s *Server) steppedDown(term uint64, leaderURL string) {
	s.logf("server: stepped down at term %d; %s admits jobs now", term, leaderURL)
}

// Shutdown drains the service: new submissions are rejected, workers finish
// their in-flight jobs, and jobs still queued are checkpointed to disk (or
// failed with "shutting_down" when no checkpoint dir is configured). ctx
// bounds how long to wait for the in-flight jobs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	if s.election != nil {
		s.election.Stop()
	}
	close(s.stop)
	s.sched.Close() // wake every worker blocked in Next

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}

	// Workers are gone: collect everything that never ran.
	queued := s.sched.DrainAll()
	s.mu.Lock()
	queued = append(queued, s.parked...)
	s.parked = nil
	// A batch interrupted mid-flight checkpoints whole: its finished members
	// join the queued ones on disk, so the restarted server rebuilds (and
	// deterministically re-runs) the full batch rather than a partial one.
	if s.cfg.CheckpointDir != "" {
		inQueue := make(map[string]bool, len(queued))
		for _, job := range queued {
			inQueue[job.Spec.ID] = true
		}
		for _, job := range s.jobs {
			if job.Spec.Batch != "" && !inQueue[job.Spec.ID] && s.batchOpenLocked(job.Spec.Batch) {
				if err := checkpointJob(s.cfg.CheckpointDir, job.Spec); err != nil {
					s.checkpointErrs.Add(1)
				}
			}
		}
	}
	s.mu.Unlock()
	sort.Slice(queued, func(i, j int) bool { return queued[i].Spec.ID < queued[j].Spec.ID })

	var firstErr error
	for _, job := range queued {
		if s.cfg.CheckpointDir != "" {
			if err := checkpointJob(s.cfg.CheckpointDir, job.Spec); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				s.checkpointErrs.Add(1)
				s.logf("server: checkpointing %s failed: %v (failing the job instead)", job.Spec.ID, err)
				s.finishFailed(job, fmt.Errorf("checkpoint failed: %w: %w", err, context.Canceled))
			}
			continue
		}
		s.finishFailed(job, fmt.Errorf("server shut down before the job ran: %w", context.Canceled))
	}
	// Let in-flight async remote-store retries finish (bounded by ctx) so a
	// clean shutdown does not silently drop shared-tier write-throughs.
	if s.store != nil {
		if err := s.store.Flush(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Server) removeCheckpoint(dir, id string) {
	// Best effort: a leftover file only means a duplicate (idempotent) run
	// after the next restart. Still worth surfacing — a failing delete is
	// usually the first sign of a sick checkpoint volume.
	if err := removeFile(dir, id); err != nil && !os.IsNotExist(err) {
		s.checkpointErrs.Add(1)
		s.logf("server: removing checkpoint %s: %v (job may run twice after the next restart)", id, err)
	}
}

// --- workers ---

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Prefer the stop signal over more work when both are ready.
		select {
		case <-s.stop:
			return
		default:
		}
		job, tenantID, ok := s.sched.Next()
		if !ok {
			return // scheduler closed: shutting down
		}
		s.mu.Lock()
		draining := s.draining
		if draining {
			s.parked = append(s.parked, job)
		}
		s.mu.Unlock()
		if draining {
			s.sched.Release(tenantID)
			continue
		}
		s.runJob(job, tenantID)
	}
}

// runJob executes one job to a terminal state. Any panic escaping the engine
// (whose pass pipeline already converts pass crashes into pass.PanicError)
// or thrown by the server-side job path itself is recovered here: the job
// fails with 500/"internal", the worker survives.
func (s *Server) runJob(job *Job, tenantID string) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer s.sched.Release(tenantID)
	s.mu.Lock()
	job.Status = StatusRunning
	job.StartedAt = time.Now()
	s.batchEventLocked(job, batchEventDispatched)
	s.mu.Unlock()

	var err error
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = fmt.Errorf("job %s panicked: %v: %w", job.Spec.ID, r, rterr.ErrInternal)
		}
		if err != nil {
			s.finishFailed(job, err)
		} else {
			s.completed.Add(1)
			s.mu.Lock()
			job.Status = StatusDone
			job.FinishedAt = time.Now()
			s.batchEventLocked(job, batchEventDone)
			s.mu.Unlock()
			close(job.done)
		}
	}()
	err = s.execute(job)
}

// finishFailed marks job failed with the mapped error body and releases its
// waiters.
func (s *Server) finishFailed(job *Job, err error) {
	status, body := MapError(err)
	s.failed.Add(1)
	s.mu.Lock()
	job.Status = StatusFailed
	job.Err = &body
	job.HTTP = status
	job.FinishedAt = time.Now()
	s.batchEventLocked(job, batchEventFailed)
	s.mu.Unlock()
	close(job.done)
}

// execute runs the retiming flow for job: dispatch to a cluster worker when
// one is healthy, otherwise (or for sweeps, which fan out per point instead)
// run locally under the budget-relaxing retry ladder.
func (s *Server) execute(job *Job) error {
	ctx := context.Background()
	if job.Spec.Failpoints != "" {
		set, err := failpoint.ParseSet(job.Spec.Failpoints)
		if err != nil {
			return fmt.Errorf("%w: %v", rterr.ErrMalformedInput, err)
		}
		var release func()
		ctx, release = failpoint.With(ctx, set)
		defer release()
	}
	timeout := s.cfg.DefaultTimeout
	if ms := job.Spec.Options.TimeoutMS; ms != 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// Worker-level chaos hook: a panic here is recovered by runJob, not by
	// the engine's pass pipeline.
	if err := failpoint.Inject(ctx, "server.job"); err != nil {
		return err
	}

	if job.Spec.Kind == KindExplore {
		return s.executeExplore(ctx, job)
	}

	if s.dispatcher != nil {
		res, attempts, workerID, err := s.dispatchRetime(ctx, job.Spec)
		switch {
		case err == nil:
			s.mu.Lock()
			job.Result, job.Attempts, job.Worker = res, attempts, workerID
			s.mu.Unlock()
			return nil
		case errors.Is(err, cluster.ErrUnavailable):
			// The whole cluster degrading never fails a job: run it here,
			// exactly like a single-node deployment would.
			s.clusterFallback.Add(1)
			s.logf("cluster: %s: %v; running locally", job.Spec.ID, err)
		default:
			// A definitive remote failure (re-mapped into the engine's error
			// taxonomy) or this job's own deadline/cancellation.
			s.mu.Lock()
			job.Worker = workerID
			s.mu.Unlock()
			return err
		}
	}

	res, attempts, err := s.runRetime(ctx, job.Spec.BLIF, job.Spec.Options, func(n int) {
		s.mu.Lock()
		job.Attempts = n
		s.mu.Unlock()
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	job.Result, job.Attempts = res, attempts
	s.mu.Unlock()
	return nil
}

// runRetime runs the single-point retime flow for (blifText, wireOpts) under
// the budget-relaxing retry ladder. It is the shared core of local job
// execution and the worker's forwarded-run handler, which is what makes a
// forwarded job bit-identical to a local one. onAttempt (optional) observes
// each attempt number before it runs.
func (s *Server) runRetime(ctx context.Context, blifText string, wireOpts JobOptions, onAttempt func(int)) (*Result, int, error) {
	opts, err := wireOpts.coreOptions()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", rterr.ErrMalformedInput, err)
	}
	var res *Result
	attempts, err := s.withBudgetRetry(ctx, opts.Budgets, func(attempt int, budgets core.Budgets) error {
		if onAttempt != nil {
			onAttempt(attempt)
		}
		c, err := blif.Read(strings.NewReader(blifText))
		if err != nil {
			return err
		}
		rec := trace.NewRecorder()
		opts.Trace, opts.Budgets = rec, budgets
		res, err = retimeOnce(ctx, c, opts)
		s.foldCounters(rec)
		return err
	})
	if err != nil {
		return nil, attempts, err
	}
	if attempts > 1 {
		res.Report.Degraded = append(res.Report.Degraded, fmt.Sprintf(
			"budget exceeded; succeeded on attempt %d with budgets relaxed %d rung(s)",
			attempts, attempts-1))
	}
	return res, attempts, nil
}

// withBudgetRetry runs attempt under the budget-relaxing retry ladder shared
// by retime and explore jobs. Attempt n (from 1) runs with budgets relaxed
// n-1 rungs (core.Budgets.Relaxed); only ErrBudgetExceeded is retried, after
// a deterministic exponential backoff from RetryBase, and at most RetryMax
// times. It returns the number of attempts made and the last attempt's error.
func (s *Server) withBudgetRetry(ctx context.Context, budgets core.Budgets, attempt func(n int, budgets core.Budgets) error) (int, error) {
	maxRetries := max(s.cfg.RetryMax, 0)
	backoff := retry.Schedule{Base: s.cfg.RetryBase}
	for n := 1; ; n++ {
		err := attempt(n, budgets)
		if err == nil {
			return n, nil
		}
		if !errors.Is(err, rterr.ErrBudgetExceeded) || n > maxRetries || ctx.Err() != nil {
			return n, err
		}
		s.retried.Add(1)
		if werr := backoff.Wait(ctx, n-1); werr != nil {
			return n, fmt.Errorf("%w (while backing off after: %v)", werr, err)
		}
		budgets = budgets.Relaxed()
	}
}

// retimeOnce runs one retiming attempt.
func retimeOnce(ctx context.Context, c *netlist.Circuit, opts core.Options) (*Result, error) {
	out, rep, err := core.RetimeCtx(ctx, c, opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := blif.Write(&buf, out); err != nil {
		return nil, err
	}
	return &Result{BLIF: buf.String(), Report: summarize(rep)}, nil
}

// executeExplore runs a sweep under the same budget ladder. On a clustered
// coordinator every store-missed point is offered to the workers (routed by
// its point key); any dispatch failure solves that point locally, so the
// front is identical with a full, flaky, or absent cluster.
func (s *Server) executeExplore(ctx context.Context, job *Job) error {
	opts, err := job.Spec.Options.coreOptions()
	if err != nil {
		return fmt.Errorf("%w: %v", rterr.ErrMalformedInput, err)
	}
	var remote func(context.Context, string, int64) (*explore.Solution, error)
	if s.dispatcher != nil {
		remote = s.remotePointFn(job.Spec)
	}
	_, err = s.withBudgetRetry(ctx, opts.Budgets, func(attempt int, budgets core.Budgets) error {
		s.mu.Lock()
		job.Attempts = attempt
		s.mu.Unlock()

		c, err := blif.Read(strings.NewReader(job.Spec.BLIF))
		if err != nil {
			return err
		}
		rec := trace.NewRecorder()
		opts.Trace, opts.Budgets = rec, budgets // steps 1-3 of the shared prepare stage
		front, err := explore.Sweep(ctx, c, explore.Options{
			Core:        opts,
			Parallelism: job.Spec.Options.Parallelism,
			MaxPoints:   job.Spec.Options.MaxPoints,
			Store:       s.store,
			Trace:       rec,
			Remote:      remote,
			Progress: func(done, total int) {
				s.mu.Lock()
				job.Progress = &Progress{Done: done, Total: total}
				s.mu.Unlock()
			},
		})
		s.foldCounters(rec)
		if err != nil {
			return err
		}
		s.mu.Lock()
		job.Result = &Result{Front: front}
		s.mu.Unlock()
		return nil
	})
	return err
}

// foldCounters merges one job run's trace counters into the service totals.
func (s *Server) foldCounters(rec *trace.Recorder) {
	s.cntMu.Lock()
	defer s.cntMu.Unlock()
	for name, v := range rec.RootCounters() {
		s.counters[name] += v
	}
	for _, sp := range rec.Spans() {
		for name, v := range sp.Counters {
			s.counters[name] += v
		}
	}
}

// --- HTTP handlers ---

// retimeRequest is the POST /v1/retime and POST /v1/explore envelope.
type retimeRequest struct {
	BLIF       string     `json:"blif"`
	Options    JobOptions `json:"options"`
	Failpoints string     `json:"failpoints,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, detail string) {
	writeErrorBody(w, status, ErrorBody{Code: code, Detail: detail})
}

func writeErrorBody(w http.ResponseWriter, status int, body ErrorBody) {
	writeJSON(w, status, struct {
		Error ErrorBody `json:"error"`
	}{body})
}

// tenantFrom resolves the submitting tenant from the X-MCRetiming-Tenant
// header ("default" when absent); an unusable tenant ID is a 400.
func (s *Server) tenantFrom(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.Header.Get(tenant.Header)
	if id == "" {
		return tenant.DefaultTenant, true
	}
	if !tenant.ValidID(id) {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("invalid %s header: 1-%d chars of [A-Za-z0-9._-]", tenant.Header, tenant.MaxIDLen))
		return "", false
	}
	return id, true
}

// specTenant is the spec field for a tenant ID: empty for the default tenant
// so default-tenant specs keep the pre-tenant checkpoint byte format.
func specTenant(id string) string {
	if id == tenant.DefaultTenant {
		return ""
	}
	return id
}

// readBody slurps the (bounded) request body — submission handlers need the
// raw bytes for the idempotency fingerprint before decoding.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "reading request: "+err.Error())
		return nil, false
	}
	return raw, true
}

// writeAdmissionReject answers a scheduler admission error: 429 with the
// mapped body. A per-tenant quota rejection carries the tenant and limit and
// a longer Retry-After than plain global backpressure — the tenant's own
// backlog must drain, not just anyone's.
func (s *Server) writeAdmissionReject(w http.ResponseWriter, err error) {
	status, body := MapError(err)
	if body.Code == CodeQuotaExceeded {
		s.quotaRejected.Add(1)
		w.Header().Set("Retry-After", "5")
	} else {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
	}
	writeErrorBody(w, status, body)
}

// idemRecord is one remembered idempotent submission: the job or batch it
// admitted plus a fingerprint of the request content, so a retry with the
// same key and different body is caught as a conflict instead of silently
// returning someone else's job.
type idemRecord struct {
	id          string // job-... or batch-...
	fingerprint string
}

// checkIdempotency handles the Idempotency-Key header on submissions. When
// the key was seen before with the same content fingerprint, the existing
// job/batch is replayed (ok=false — the response has been written); a
// content mismatch is a 409. Otherwise it returns the key and fingerprint
// for recordIdempotency after successful admission.
func (s *Server) checkIdempotency(w http.ResponseWriter, r *http.Request, tenantID, kind string, raw []byte) (key, fingerprint string, ok bool) {
	key = r.Header.Get("Idempotency-Key")
	if key == "" {
		return "", "", true
	}
	// Keys are scoped per tenant; the fingerprint is the content-addressed
	// store key of the raw body (same hashing as result addressing).
	key = tenantID + "\x00" + key
	fingerprint = store.Key(raw, []byte(tenantID), []byte(kind))
	s.mu.Lock()
	rec, seen := s.idem[key]
	s.mu.Unlock()
	if !seen {
		return key, fingerprint, true
	}
	if rec.fingerprint != fingerprint {
		writeError(w, http.StatusConflict, CodeBadRequest,
			"Idempotency-Key was already used with a different request body")
		return "", "", false
	}
	s.idemReplays.Add(1)
	w.Header().Set("Idempotency-Replayed", "true")
	if strings.HasPrefix(rec.id, "batch-") {
		s.mu.Lock()
		b := s.batches[rec.id]
		var view any
		if b != nil {
			view = s.batchViewLocked(b)
		}
		s.mu.Unlock()
		if view != nil {
			writeJSON(w, http.StatusOK, view)
			return "", "", false
		}
	} else {
		s.mu.Lock()
		job := s.jobs[rec.id]
		s.mu.Unlock()
		if job != nil {
			s.writeJob(w, job)
			return "", "", false
		}
	}
	// The admitted work is gone (e.g. restarted process lost the job table).
	// Fall through to a fresh admission under the same key.
	return key, fingerprint, true
}

// recordIdempotency remembers a successful admission under its key.
func (s *Server) recordIdempotency(key, fingerprint, id string) {
	if key == "" {
		return
	}
	s.mu.Lock()
	s.idem[key] = idemRecord{id: id, fingerprint: fingerprint}
	s.mu.Unlock()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.submit(w, r, KindRetime)
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	s.submit(w, r, KindExplore)
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string) {
	// HA fencing: only the leader admits jobs. A standby — including a
	// partitioned ex-leader that stepped down — answers with the leader hint
	// (307 when it knows one, 503 when it does not) and never enqueues, so
	// at most one side of a split pair grows the job log.
	if s.fenceStandby(w, r) {
		return
	}
	tenantID, ok := s.tenantFrom(w, r)
	if !ok {
		return
	}
	raw, rok := s.readBody(w, r)
	if !rok {
		return
	}
	var req retimeRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: "+err.Error())
		return
	}
	// Validate everything up front so a bad job never occupies queue space
	// or a worker.
	if _, err := blif.Read(strings.NewReader(req.BLIF)); err != nil {
		status, eb := MapError(err)
		writeError(w, status, eb.Code, eb.Detail)
		return
	}
	if _, err := req.Options.coreOptions(); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	if req.Failpoints != "" {
		if !s.cfg.EnableFailpoints {
			writeError(w, http.StatusForbidden, CodeBadRequest,
				"failpoints are disabled on this server (start with -failpoints)")
			return
		}
		if _, err := failpoint.ParseSet(req.Failpoints); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
	}

	idemKey, fingerprint, idemOK := s.checkIdempotency(w, r, tenantID, kind, raw)
	if !idemOK {
		return
	}

	s.mu.Lock()
	if s.draining || !s.started {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "server is not accepting jobs")
		return
	}
	s.seq++
	job := &Job{
		Spec: JobSpec{
			ID:         fmt.Sprintf("job-%06d", s.seq),
			Kind:       kind,
			BLIF:       req.BLIF,
			Options:    req.Options,
			Failpoints: req.Failpoints,
			Tenant:     specTenant(tenantID),
		},
		Status:   StatusQueued,
		QueuedAt: time.Now(),
		done:     make(chan struct{}),
	}
	s.jobs[job.Spec.ID] = job
	s.mu.Unlock()

	if err := s.sched.Enqueue(tenantID, job); err != nil {
		// Admission refused — the job never ran, so forgetting it is safe.
		s.mu.Lock()
		delete(s.jobs, job.Spec.ID)
		s.mu.Unlock()
		s.writeAdmissionReject(w, err)
		return
	}
	s.submitted.Add(1)
	s.recordIdempotency(idemKey, fingerprint, job.Spec.ID)
	if s.election != nil {
		s.election.Kick() // replicate the new job to the standby now, not next beat
	}

	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		select {
		case <-job.done:
			s.writeJob(w, job)
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable, CodeCanceled, "client went away; job continues: "+job.Spec.ID)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, jobView{ID: job.Spec.ID, Status: StatusQueued})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeBadRequest, "no such job")
		return
	}
	s.writeJob(w, job)
}

// Listing pagination bounds: ?limit= defaults to defaultJobsLimit and is
// clamped to maxJobsLimit, so a 10k-job batch cannot turn the listing into a
// 10k-entry response.
const (
	defaultJobsLimit = 100
	maxJobsLimit     = 1000
)

// handleJobs lists tracked jobs as light views (no result payloads) in
// stable (queued_at, id) order, paginated: ?limit= bounds the page (default
// 100, max 1000) and ?cursor= resumes after the previous page's
// next_cursor. Optional filters: ?status=queued|running|done|failed and
// ?tenant=<id>.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	filter := q.Get("status")
	switch JobStatus(filter) {
	case "", StatusQueued, StatusRunning, StatusDone, StatusFailed:
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, "unknown status filter "+strconv.Quote(filter))
		return
	}
	tenantFilter := q.Get("tenant")
	limit := defaultJobsLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "limit must be a positive integer")
			return
		}
		limit = min(n, maxJobsLimit)
	}
	afterNano, afterID, cursorOK := parseJobsCursor(q.Get("cursor"))
	if !cursorOK {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed cursor (use the next_cursor of the previous page)")
		return
	}

	type keyed struct {
		view jobView
		nano int64
	}
	s.mu.Lock()
	all := make([]keyed, 0, len(s.jobs))
	for _, job := range s.jobs {
		if filter != "" && string(job.Status) != filter {
			continue
		}
		if tenantFilter != "" && tenantOf(job.Spec) != tenantFilter {
			continue
		}
		all = append(all, keyed{s.viewLocked(job, false), job.QueuedAt.UnixNano()})
	}
	s.mu.Unlock()
	// Stable (queued_at, id) order: batch members share an admission instant,
	// so the ID tiebreak is what keeps the cursor exact.
	sort.Slice(all, func(i, j int) bool {
		if all[i].nano != all[j].nano {
			return all[i].nano < all[j].nano
		}
		return all[i].view.ID < all[j].view.ID
	})
	start := 0
	if afterID != "" {
		start = sort.Search(len(all), func(i int) bool {
			if all[i].nano != afterNano {
				return all[i].nano > afterNano
			}
			return all[i].view.ID > afterID
		})
	}
	end := min(start+limit, len(all))
	views := make([]jobView, 0, end-start)
	for _, k := range all[start:end] {
		views = append(views, k.view)
	}
	next := ""
	if end < len(all) {
		next = fmt.Sprintf("%d:%s", all[end-1].nano, all[end-1].view.ID)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs       []jobView `json:"jobs"`
		Count      int       `json:"count"`
		NextCursor string    `json:"next_cursor,omitempty"`
	}{views, len(views), next})
}

// parseJobsCursor decodes "<queuedAtUnixNano>:<jobID>"; empty is the start.
func parseJobsCursor(c string) (nano int64, id string, ok bool) {
	if c == "" {
		return 0, "", true
	}
	i := strings.IndexByte(c, ':')
	if i <= 0 || i == len(c)-1 {
		return 0, "", false
	}
	n, err := strconv.ParseInt(c[:i], 10, 64)
	if err != nil {
		return 0, "", false
	}
	return n, c[i+1:], true
}

// viewLocked renders job under s.mu. withResult controls whether the result
// payload (potentially a large netlist or a whole front) is included.
func (s *Server) viewLocked(job *Job, withResult bool) jobView {
	view := jobView{
		ID:         job.Spec.ID,
		Kind:       job.Spec.Kind,
		Status:     job.Status,
		Tenant:     job.Spec.Tenant,
		Batch:      job.Spec.Batch,
		Attempts:   job.Attempts,
		Worker:     job.Worker,
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

// writeJob renders a job; failed jobs answer with their mapped HTTP status
// so that "GET a panicked job" is a 500 and "GET an infeasible job" a 422.
func (s *Server) writeJob(w http.ResponseWriter, job *Job) {
	s.mu.Lock()
	view := s.viewLocked(job, true)
	status := http.StatusOK
	if job.Status == StatusFailed {
		status = job.HTTP
	}
	s.mu.Unlock()
	writeJSON(w, status, view)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready := s.started && !s.draining
	s.mu.Unlock()
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := 0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	var b strings.Builder
	put := func(name string, v int64) { fmt.Fprintf(&b, "mcretimed_%s %d\n", name, v) }
	put("jobs_submitted", s.submitted.Load())
	put("jobs_completed", s.completed.Load())
	put("jobs_failed", s.failed.Load())
	put("jobs_rejected", s.rejected.Load())
	put("jobs_retried", s.retried.Load())
	put("jobs_resumed", s.resumed.Load())
	put("job_panics", s.panics.Load())
	put("jobs_quota_rejected", s.quotaRejected.Load())
	put("queue_depth", int64(s.sched.Len()))
	put("inflight", s.inflight.Load())
	put("draining", int64(draining))
	put("checkpoint_errors", s.checkpointErrs.Load())

	// Multi-tenant serving counters: batch lifecycle plus one labelled row
	// set per tenant the scheduler has ever seen.
	put("batches_submitted", s.batchesSubmitted.Load())
	put("batches_completed", s.batchesCompleted.Load())
	put("batch_jobs_submitted", s.batchJobs.Load())
	put("idempotent_replays", s.idemReplays.Load())
	now := time.Now()
	for _, st := range s.sched.StatsSnapshot() {
		lput := func(name string, v int64) {
			fmt.Fprintf(&b, "mcretimed_tenant_%s{tenant=%q} %d\n", name, st.Tenant, v)
		}
		lput("weight", int64(st.Weight))
		lput("queued", int64(st.Queued))
		lput("inflight", int64(st.InFlight))
		lput("dispatched", st.Dispatched)
		lput("quota_rejects", st.QuotaRejects)
		var age int64
		if !st.OldestQueued.IsZero() {
			age = now.Sub(st.OldestQueued).Milliseconds()
		}
		lput("oldest_queued_age_ms", age)
	}

	// Cluster counters. The registry block is coordinator-only; runs_served
	// counts this node's worker side.
	if s.registry != nil {
		alive, suspect, dead := s.registry.CountByState()
		put("cluster_workers_alive", int64(alive))
		put("cluster_workers_suspect", int64(suspect))
		put("cluster_workers_dead", int64(dead))
		put("cluster_jobs_dispatched", s.dispatched.Load())
		put("cluster_local_fallbacks", s.clusterFallback.Load())
		put("cluster_remote_points", s.remotePoints.Load())
	}
	put("cluster_runs_served", s.clusterRuns.Load())

	// HA pair counters (zero rows unless -peer is configured). ha_is_leader is
	// the role gauge; holds count indeterminate probes where the standby chose
	// fail-safe inaction over a possible split brain.
	if s.election != nil {
		status := s.election.Status()
		stats := s.election.Stats()
		leader := int64(0)
		if status.Role == cluster.RoleLeader {
			leader = 1
		}
		put("ha_is_leader", leader)
		put("ha_term", int64(status.Term))
		put("ha_campaigns", stats.Campaigns)
		put("ha_stepdowns", stats.Stepdowns)
		put("ha_lease_pushes", stats.Pushes)
		put("ha_lease_push_errors", stats.PushErrors)
		put("ha_lease_holds", stats.Holds)
		put("ha_store_replicated_out", stats.StoreReplicated)
		put("ha_store_replication_drops", stats.StoreDropped)
		put("ha_replicated_jobs", s.haReplJobs.Load())
		put("ha_replicated_store", s.haReplStore.Load())
		put("ha_not_leader_rejects", s.haNotLeader.Load())
		put("ha_takeover_jobs", s.haTakeoverJobs.Load())
	}

	// Result-store counters (zero unless -store is configured). The remote_*
	// rows count the shared tier; remote errors are degradations to local
	// misses, never failures.
	if s.store != nil {
		st := s.store.Stats()
		put("store_hits", st.Hits)
		put("store_misses", st.Misses)
		put("store_corrupt", st.Corrupt)
		put("store_saves", st.Saves)
		put("store_save_errors", st.SaveErrors)
		put("store_remote_hits", st.RemoteHits)
		put("store_remote_misses", st.RemoteMisses)
		put("store_remote_errors", st.RemoteErrors)
		put("store_remote_saves", st.RemoteSaves)
		put("store_remote_save_errors", st.RemoteSaveErrors)
		put("store_remote_save_retries", st.RemoteSaveRetries)
		put("store_remote_save_dropped", st.RemoteSaveDropped)
	}

	// Process-cumulative solve counters (every solve, lifetime of the
	// process): the warm-start hit/miss split — a warm hit is a feasibility
	// probe answered from a restored probe-ladder checkpoint instead of a cold
	// solve — and the number of cold SPFA starts.
	cs := graph.TotalCacheStats()
	put("solve_warm_hits", cs.WarmHits)
	put("solve_warm_misses", cs.WarmMisses)
	put("solve_spfa_cold_starts", graph.ColdStartCount())

	// Engine counters aggregated from per-job trace recorders, in stable
	// order.
	s.cntMu.Lock()
	names := make([]string, 0, len(s.counters))
	for name := range s.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		put("trace_"+strings.NewReplacer("-", "_", ".", "_").Replace(name), s.counters[name])
	}
	s.cntMu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
