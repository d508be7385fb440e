// Command mcretimed is the long-running retiming service: an HTTP JSON API
// over the mc-retiming engine with admission control, per-job deadlines,
// panic isolation, and graceful shutdown with checkpoint/resume (see
// internal/server). Each job runs once: solver budgets degrade inside the
// engine, so a job's first error is its answer.
//
// Usage:
//
//	mcretimed [-addr :8472] [-queue 64] [-workers 2] [-deadline 60s]
//	          [-checkpoint DIR] [-store DIR] [-failpoints]
//	          [-coordinator] [-join URL -advertise URL] [-remote-store URL]
//	          [-peer URL] [-election-timeout 18s] [-tenants FILE]
//
// A single daemon serves jobs by itself. With -coordinator it additionally
// dispatches jobs to joined workers (degrading to local execution when none
// is healthy); with -join/-advertise it runs as a worker of that
// coordinator. Two coordinators started with -peer pointing at each other
// form a highly-available pair: one leads, the other replicates its jobs and
// store writes and takes over when the leader provably dies. See README
// "Cluster" and "Cluster HA".
//
// API:
//
//	POST /v1/retime        submit a job: {"blif": "...", "options": {...}}
//	                       ?wait=1 blocks until the job finishes
//	POST /v1/explore       submit a design-space sweep (same envelope);
//	                       the result carries the mcretiming-front/v1 Pareto
//	                       front, and GET /v1/jobs/{id} reports per-point
//	                       progress while it runs
//	POST /v1/batch         submit N jobs as one batch: {"jobs":[{...}, ...]}
//	GET  /v1/batch/{id}    aggregate batch status + member views
//	GET  /v1/batch/{id}/events  stream per-job progress (NDJSON, or SSE with
//	                       Accept: text/event-stream); ?after=N replays
//	GET  /v1/jobs          list jobs (?status=queued|running|done|failed,
//	                       ?tenant=, paginated with ?limit= and ?cursor=)
//	GET  /v1/jobs/{id}     job status/result; failed jobs answer with their
//	                       mapped HTTP status (see README "Serving")
//	GET  /v1/cluster/autoscale  scaling signals: per-tenant queue depth and
//	                       wait age, per-worker serving counts
//
// Submissions may carry an X-MCRetiming-Tenant header (default tenant when
// absent); -tenants names a JSON file of per-tenant weights and admission
// quotas, hot-reloaded on SIGHUP. An Idempotency-Key header on POST
// /v1/retime and /v1/batch makes retries safe: the same key with the same
// body replays the original admission.
//
// Other endpoints:
//
//	POST /v1/cluster/run   execute one forwarded run (cluster data plane)
//	POST /v1/cluster/join  register a worker        (coordinator only)
//	POST /v1/cluster/heartbeat  renew a worker lease (coordinator only)
//	GET  /v1/cluster/workers    membership + liveness (coordinator only)
//	GET  /v1/cluster/leader     HA role/term/leader hint (coordinator only)
//	POST /v1/cluster/campaign   force a lease campaign — manual failover
//	POST /v1/cluster/replicate/jobs   leader→standby job snapshot (HA pair)
//	POST /v1/cluster/replicate/store  leader→standby store write  (HA pair)
//	GET  /v1/store/{key}   serve a result-store envelope (coordinator only)
//	PUT  /v1/store/{key}   accept a validated envelope   (coordinator only)
//	GET  /healthz          process liveness
//	GET  /readyz           503 while starting up or draining
//	GET  /metrics          plaintext counters
//
// SIGINT/SIGTERM triggers graceful shutdown: in-flight jobs finish, queued
// jobs checkpoint to -checkpoint (when set) and are resumed by the next
// start. The MCRETIMING_FAILPOINTS environment variable arms process-wide
// fault-injection sites (internal/failpoint); the -failpoints flag
// additionally accepts per-job "failpoints" specs over the API for chaos
// testing.
package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcretiming/internal/failpoint"
	"mcretiming/internal/server"

	"flag"
)

func main() {
	addr := flag.String("addr", ":8472", "listen address")
	queue := flag.Int("queue", 64, "bounded job-queue size (admission control)")
	workers := flag.Int("workers", 2, "concurrent job executors")
	deadline := flag.Duration("deadline", 60*time.Second, "default per-job deadline (negative = none)")
	checkpoint := flag.String("checkpoint", "", "directory for queued-job checkpoints on shutdown (empty = disabled)")
	storeDir := flag.String("store", os.Getenv("MCRETIMING_STORE"),
		"persistent result store for retime results and explore points; no size cap (default: $MCRETIMING_STORE; empty = disabled)")
	allowFP := flag.Bool("failpoints", false, "accept per-job failpoint specs over the API (chaos testing only)")
	drainTimeout := flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight jobs")
	coordinator := flag.Bool("coordinator", false, "enable the cluster control plane and dispatch jobs to joined workers")
	joinURL := flag.String("join", "", "run as a worker of the coordinator at this base URL")
	advertise := flag.String("advertise", "", "base URL the coordinator dials this worker back on (required with -join)")
	workerID := flag.String("worker-id", "", "stable cluster identity (default: the advertise URL)")
	lease := flag.Duration("lease", 6*time.Second, "coordinator heartbeat lease TTL")
	heartbeat := flag.Duration("heartbeat", 0, "worker heartbeat interval (default: lease/3)")
	remoteStore := flag.String("remote-store", "", "remote result-store base URL (layered behind -store; diskless without it)")
	peer := flag.String("peer", "", "base URL of the paired HA coordinator (requires -coordinator and -advertise)")
	electionTimeout := flag.Duration("election-timeout", 0,
		"how long a standby tolerates lease silence before probing the peer (default: 3×lease)")
	tenantsFile := flag.String("tenants", "",
		"JSON file of per-tenant scheduling weights and admission quotas (hot-reloaded on SIGHUP)")
	flag.Parse()

	if *joinURL != "" && *advertise == "" {
		fatal(errors.New("-join requires -advertise (the coordinator must dial back)"))
	}
	if *joinURL != "" && *coordinator {
		fatal(errors.New("-coordinator and -join are mutually exclusive"))
	}
	if *peer != "" && !*coordinator {
		fatal(errors.New("-peer requires -coordinator (only coordinators form an HA pair)"))
	}
	if *peer != "" && *advertise == "" {
		fatal(errors.New("-peer requires -advertise (the peer and workers must dial back)"))
	}

	if err := failpoint.ArmFromEnv(); err != nil {
		fatal(err)
	}
	if *checkpoint != "" {
		if err := os.MkdirAll(*checkpoint, 0o755); err != nil {
			fatal(err)
		}
	}

	srv := server.New(server.Config{
		QueueSize:         *queue,
		Workers:           *workers,
		DefaultTimeout:    *deadline,
		CheckpointDir:     *checkpoint,
		StoreDir:          *storeDir,
		EnableFailpoints:  *allowFP,
		Coordinator:       *coordinator,
		JoinURL:           *joinURL,
		AdvertiseURL:      *advertise,
		WorkerID:          *workerID,
		LeaseTTL:          *lease,
		HeartbeatInterval: *heartbeat,
		RemoteStoreURL:    *remoteStore,
		PeerURL:           *peer,
		ElectionTimeout:   *electionTimeout,
		TenantsFile:       *tenantsFile,
	})
	if err := srv.Start(); err != nil {
		fatal(err)
	}

	// SIGHUP re-reads -tenants without a restart; a malformed file logs and
	// leaves the running table untouched.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.ReloadTenants(); err != nil {
				fmt.Fprintln(os.Stderr, "mcretimed: tenant reload:", err)
			}
		}
	}()

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	role := "single-node"
	switch {
	case *peer != "":
		role = "HA coordinator paired with " + *peer
	case *coordinator:
		role = "coordinator"
	case *joinURL != "":
		role = "worker of " + *joinURL
	}
	fmt.Fprintf(os.Stderr, "mcretimed: listening on %s (%s)\n", *addr, role)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "mcretimed: draining...")

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the job queue.
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "mcretimed: http shutdown:", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "mcretimed: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcretimed:", err)
	os.Exit(1)
}
