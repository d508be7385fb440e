package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mcretiming/internal/cluster"
	"mcretiming/internal/explore"
	"mcretiming/internal/failpoint"
	"mcretiming/internal/rterr"
	"mcretiming/internal/store"
)

// This file is the cluster face of the server: the coordinator's control
// plane (join/heartbeat/workers), the worker's data plane (/v1/cluster/run
// and the heartbeat loop), the shared-store endpoints, and the dispatch glue
// that places jobs on workers and degrades to local execution when the
// cluster cannot take them.
//
// The degradation ladder, from best to worst, is:
//
//  1. the ring-routed worker runs the job (warm store, warm Prepared cache);
//  2. a worker died mid-job → the dispatcher demotes it and re-routes to the
//     next ring node after a jittered backoff;
//  3. no worker is healthy → the coordinator runs the job inline, exactly
//     like a single-node deployment.
//
// Every rung produces byte-identical output because the engine is a pure
// function of (circuit, options[, period]); the cluster only decides where
// the function runs, never what it computes.
//
// With an HA pair (-peer) the control plane is additionally term-fenced:
// only the leader accepts joins, heartbeats, store writes, and job
// admissions; a standby answers 409/"not_leader" with a leader hint, and a
// request carrying a provably stale term gets 409/"stale_term". Workers
// follow the hints, so after a failover the whole fleet converges on the
// peer holding the highest term.

// --- coordinator control plane ---

// joinRequest is the body of POST /v1/cluster/join (and the heartbeat).
// Term, when non-zero, is the leader term the worker last joined under: a
// higher term than ours teaches us we were deposed; a lower one means the
// worker's view is stale and it must re-join.
type joinRequest struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Term uint64 `json:"term,omitempty"`
}

// joinResponse tells the worker the lease it must heartbeat against, plus —
// on an HA pair — the leader term it is now joined under and both
// coordinator URLs, so it can fail over without any out-of-band discovery.
type joinResponse struct {
	LeaseTTLMS int64  `json:"lease_ttl_ms"`
	Term       uint64 `json:"term,omitempty"`
	LeaderURL  string `json:"leader_url,omitempty"`
	PeerURL    string `json:"peer_url,omitempty"`
}

// currentTerm is this coordinator's leader term (0 without an HA pair).
func (s *Server) currentTerm() uint64 {
	if s.election == nil {
		return 0
	}
	return s.election.Term()
}

// writeLeaderReject answers a request this node must not serve (standby, or
// stale term) with the machine-readable reject body: the current term, the
// rejecting node's identity when it leads, and the best leader hint it has.
func (s *Server) writeLeaderReject(w http.ResponseWriter, status int, code, detail string) {
	var rb cluster.RejectBody
	rb.Error.Code = code
	rb.Error.Detail = detail
	if s.election != nil {
		st := s.election.Status()
		rb.Term = st.Term
		rb.LeaderHint = st.LeaderURL
		if st.Role == cluster.RoleLeader {
			rb.LeaderID = st.SelfID
			rb.LeaderHint = st.SelfURL
		}
	}
	writeJSON(w, status, rb)
}

// fenceLeader enforces "only the leader serves this" for a control-plane
// request carrying reqTerm. It first lets a higher term depose us, then
// rejects if this node does not (or no longer) lead, or if the request's term
// is provably stale. It reports whether the caller may proceed.
func (s *Server) fenceLeader(w http.ResponseWriter, reqTerm uint64, what string) bool {
	if s.election == nil {
		return true
	}
	s.election.ObserveTerm(reqTerm)
	if !s.election.IsLeader() {
		s.writeLeaderReject(w, http.StatusConflict, CodeNotLeader,
			"this coordinator is standby; "+what+" the leader")
		return false
	}
	if reqTerm != 0 && reqTerm < s.election.Term() {
		s.writeLeaderReject(w, http.StatusConflict, CodeStaleTerm,
			what+" carries a stale leader term; re-join")
		return false
	}
	return true
}

func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding join request: "+err.Error())
		return
	}
	if req.URL == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "join request needs a url")
		return
	}
	// Fence on leadership only: a standby never registers workers. A stale
	// term on a JOIN is deliberately not rejected — re-joining is exactly how
	// a worker that followed the deposed leader learns the current term, so
	// stale-fencing it here would lock the fleet out after every failover.
	// ObserveTerm still lets a newer term carried by the worker depose us.
	if s.election != nil {
		s.election.ObserveTerm(req.Term)
		if !s.election.IsLeader() {
			s.writeLeaderReject(w, http.StatusConflict, CodeNotLeader,
				"this coordinator is standby; join the leader")
			return
		}
	}
	id := req.ID
	if id == "" {
		id = req.URL
	}
	s.registry.JoinTerm(id, req.URL, s.currentTerm())
	writeJSON(w, http.StatusOK, joinResponse{
		LeaseTTLMS: s.registry.LeaseTTL().Milliseconds(),
		Term:       s.currentTerm(),
		LeaderURL:  s.cfg.AdvertiseURL,
		PeerURL:    s.cfg.PeerURL,
	})
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	// Chaos seam: a lost/delayed heartbeat. The worker keeps running; only
	// its lease lapses, walking it down the liveness ladder until a beat
	// gets through again.
	if err := failpoint.Inject(r.Context(), "cluster.heartbeat"); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "heartbeat failpoint: "+err.Error())
		return
	}
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding heartbeat: "+err.Error())
		return
	}
	if !s.fenceLeader(w, req.Term, "heartbeat") {
		return
	}
	if !s.registry.Heartbeat(req.ID) {
		// Unknown worker: forgotten, or the coordinator restarted and lost
		// the membership table. 404 tells the worker to re-join.
		writeError(w, http.StatusNotFound, CodeBadRequest, "unknown worker; re-join")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- HA pair endpoints ---

// handleClusterLeader reports this coordinator's view of the pair: its role,
// term, identity, and best-known leader URL. It is also the standby's liveness
// probe target — a connection refused here is the positive evidence of death
// that justifies a campaign, and an answer while the lease is silent means
// "peer alive but not leading", which equally justifies one.
func (s *Server) handleClusterLeader(w http.ResponseWriter, _ *http.Request) {
	if s.election == nil {
		// Single-coordinator deployment: trivially the leader, term 0.
		writeJSON(w, http.StatusOK, cluster.LeaderStatus{
			Role:      cluster.RoleLeader,
			SelfID:    s.workerID(),
			SelfURL:   s.cfg.AdvertiseURL,
			LeaderURL: s.cfg.AdvertiseURL,
		})
		return
	}
	writeJSON(w, http.StatusOK, s.election.Status())
}

// handleClusterCampaign forces this coordinator to campaign for the lease at
// term+1 — the operator's manual-failover escape hatch for the one case the
// automatic probe refuses to decide: a peer that is unreachable but possibly
// alive (partition). The operator asserting "the old leader is fenced" is
// exactly what this endpoint records.
func (s *Server) handleClusterCampaign(w http.ResponseWriter, _ *http.Request) {
	if s.election == nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "this coordinator has no HA peer")
		return
	}
	s.election.Campaign("API request")
	writeJSON(w, http.StatusOK, s.election.Status())
}

// handleReplicateJobs applies the leader's job snapshot on this standby. The
// cluster.lease failpoint models the replication stream being severed (the
// standby's half of a partition).
func (s *Server) handleReplicateJobs(w http.ResponseWriter, r *http.Request) {
	if err := failpoint.Inject(r.Context(), "cluster.lease"); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "lease failpoint: "+err.Error())
		return
	}
	if s.election == nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "this coordinator has no HA peer")
		return
	}
	var msg cluster.ReplicateJobs
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&msg); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding job snapshot: "+err.Error())
		return
	}
	if err := s.election.Observe(msg.Term, msg.LeaderID, msg.LeaderURL); err != nil {
		s.writeLeaderReject(w, http.StatusConflict, CodeStaleTerm,
			"job snapshot carries a stale term")
		return
	}
	n, err := s.applyReplicatedJobs(msg.Specs)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding job specs: "+err.Error())
		return
	}
	s.haReplJobs.Store(int64(n))
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicateStore applies one of the leader's store writes on this
// standby. The envelope is validated by SaveRaw exactly like any other store
// client's bytes — replication grants no trust. The cluster.replicate
// failpoint models this direction of the stream being severed.
func (s *Server) handleReplicateStore(w http.ResponseWriter, r *http.Request) {
	if err := failpoint.Inject(r.Context(), "cluster.replicate"); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "replicate failpoint: "+err.Error())
		return
	}
	if s.election == nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "this coordinator has no HA peer")
		return
	}
	var msg cluster.ReplicateStoreMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&msg); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding store replica: "+err.Error())
		return
	}
	if err := s.election.Observe(msg.Term, msg.LeaderID, msg.LeaderURL); err != nil {
		s.writeLeaderReject(w, http.StatusConflict, CodeStaleTerm,
			"store replica carries a stale term")
		return
	}
	if s.store == nil {
		w.WriteHeader(http.StatusNoContent) // diskless standby: nothing to warm
		return
	}
	if err := s.store.SaveRaw(r.Context(), msg.Key, msg.Envelope); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "rejected envelope: "+err.Error())
		return
	}
	s.haReplStore.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleClusterWorkers(w http.ResponseWriter, _ *http.Request) {
	workers := s.registry.Workers()
	alive, suspect, dead := s.registry.CountByState()
	writeJSON(w, http.StatusOK, struct {
		Workers []cluster.WorkerInfo `json:"workers"`
		Alive   int                  `json:"alive"`
		Suspect int                  `json:"suspect"`
		Dead    int                  `json:"dead"`
	}{workers, alive, suspect, dead})
}

// --- shared result store endpoints ---

// The coordinator serves its local store tier to workers over GET/PUT
// /v1/store/{key}. Both directions move validated envelopes only: LoadRaw
// re-validates before serving, SaveRaw validates before writing, so no
// client — honest or not — can plant a corrupt or mis-keyed entry, and a
// corrupt answer degrades to a miss on the reader's side.

func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.NotFound(w, r)
		return
	}
	data, ok := s.store.LoadRaw(r.Context(), r.PathValue("key"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		http.NotFound(w, r)
		return
	}
	// Term fence: on an HA pair only the leader accepts shared-tier writes,
	// and a write stamped with an outdated term (a worker still following the
	// deposed leader) is refused until that worker re-joins. Unstamped writes
	// (pre-HA workers, plain store clients) pass — the fence exists to keep
	// split-brain writers out, not to break compatibility. Reads stay open on
	// both nodes: a replicated read is at worst a miss.
	if s.election != nil {
		var reqTerm uint64
		if h := r.Header.Get(store.TermHeader); h != "" {
			t, err := strconv.ParseUint(h, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, CodeBadRequest, "unparsable "+store.TermHeader+" header")
				return
			}
			reqTerm = t
		}
		if !s.fenceLeader(w, reqTerm, "store write") {
			return
		}
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "reading envelope: "+err.Error())
		return
	}
	if err := s.store.SaveRaw(r.Context(), r.PathValue("key"), data); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "rejected envelope: "+err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- worker data plane ---

func (s *Server) handleClusterRun(w http.ResponseWriter, r *http.Request) {
	// Admission: at most Workers forwarded runs in flight; beyond that the
	// coordinator should route elsewhere, so shed with the same 429 the job
	// queue uses.
	select {
	case s.runSem <- struct{}{}:
		defer func() { <-s.runSem }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, CodeQueueFull,
			fmt.Sprintf("worker run slots are full (%d running)", s.cfg.Workers))
		return
	}
	if !s.accepting() {
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "worker is not accepting runs")
		return
	}

	var req cluster.RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding run request: "+err.Error())
		return
	}
	var wireOpts JobOptions
	if len(req.Options) > 0 {
		if err := json.Unmarshal(req.Options, &wireOpts); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding run options: "+err.Error())
			return
		}
	}

	if req.Failpoints != "" && !s.cfg.EnableFailpoints {
		writeError(w, http.StatusForbidden, CodeBadRequest,
			"failpoints are disabled on this worker (start with -failpoints)")
		return
	}
	// The request context doubles as the loss signal: if the coordinator's
	// per-attempt deadline fires or the connection drops, this run is
	// cancelled and the job completes wherever the coordinator re-routed it.
	ctx, cancel, err := s.runContext(r.Context(), req.Failpoints, wireOpts.TimeoutMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	defer cancel()

	s.clusterRuns.Add(1)
	resp, err := s.serveRun(ctx, req, wireOpts)
	if err != nil {
		status, eb := MapError(err)
		writeError(w, status, eb.Code, eb.Detail)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// serveRun executes one forwarded run. Panics anywhere in the flow are
// recovered into 500/"internal" — a crashing job must kill neither the
// worker nor the cluster, and "internal" is retryable so the coordinator
// re-routes it (where, being deterministic, it crashes again only if the
// crash is input-caused — then the ladder ends at the coordinator's own
// panic isolation).
func (s *Server) serveRun(ctx context.Context, req cluster.RunRequest, wireOpts JobOptions) (resp *cluster.RunResponse, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			resp, err = nil, fmt.Errorf("forwarded run panicked: %v: %w", r, rterr.ErrInternal)
		}
	}()
	switch req.Kind {
	case cluster.KindRetime:
		res, err := s.runRetime(ctx, req.BLIF, wireOpts)
		if err != nil {
			return nil, err
		}
		payload, err := json.Marshal(res)
		if err != nil {
			return nil, fmt.Errorf("%w: encoding result: %v", rterr.ErrInternal, err)
		}
		return &cluster.RunResponse{Result: payload}, nil
	case cluster.KindExplorePoint:
		c, opts, err := parseJob(req.BLIF, wireOpts)
		if err != nil {
			return nil, err
		}
		sol, err := s.points.Solve(ctx, c, opts, req.PeriodPS, s.store)
		if err != nil {
			return nil, err
		}
		payload, err := json.Marshal(sol)
		if err != nil {
			return nil, fmt.Errorf("%w: encoding solution: %v", rterr.ErrInternal, err)
		}
		return &cluster.RunResponse{Result: payload}, nil
	default:
		return nil, fmt.Errorf("%w: unknown run kind %q", rterr.ErrMalformedInput, req.Kind)
	}
}

// --- worker heartbeat loop ---

// workerID is this node's stable cluster identity, as a worker and as an HA
// coordinator.
func (s *Server) workerID() string {
	if s.cfg.WorkerID != "" {
		return s.cfg.WorkerID
	}
	return s.cfg.AdvertiseURL
}

// setLeaderView records which coordinator this worker follows. An empty peer
// keeps the previous one: a reject hint names the leader but not its peer.
func (s *Server) setLeaderView(leader, peer string, term uint64) {
	s.leaderMu.Lock()
	s.leaderKnown = leader
	if peer != "" {
		s.leaderPeer = peer
	}
	s.leaderMu.Unlock()
	if term > 0 {
		s.workerTerm.Store(term)
	}
}

// joinCandidates is the ordered list of coordinators to try joining: the
// last-known leader first, then its peer, then the configured join URL —
// duplicates and blanks pruned by the caller.
func (s *Server) joinCandidates() []string {
	s.leaderMu.Lock()
	defer s.leaderMu.Unlock()
	return []string{s.leaderKnown, s.leaderPeer, s.cfg.JoinURL}
}

// heartbeatLoop keeps this worker registered with whichever coordinator
// currently leads: join (following 409 leader hints across the HA pair),
// then heartbeat at a per-worker jittered cadence, re-joining on 404 (the
// coordinator forgot us), on 409 (leadership moved), and after repeated
// transport failures (the leader's host died; its peer answers the re-join).
func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	joined := s.joinCluster()
	// The deterministic spread keeps a large fleet's beats (and its re-join
	// stampede after a failover) from landing in the same instant.
	t := time.NewTicker(cluster.JitterHeartbeat(s.workerID(), s.cfg.HeartbeatInterval))
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		if !joined {
			joined = s.joinCluster()
			continue
		}
		var notLeader *notLeaderError
		switch err := s.sendHeartbeat(); {
		case err == nil:
			misses = 0
		case errors.Is(err, errUnknownWorker):
			s.logf("cluster: coordinator no longer knows us; re-joining")
			joined = s.joinCluster()
		case errors.As(err, &notLeader):
			s.logf("cluster: leadership moved (%v); re-joining", err)
			joined = s.joinCluster()
		case errors.Is(err, errUnreachable):
			// The coordinator's host is not answering at all — possibly dead
			// for good. After two straight misses try the other coordinator
			// via a full re-join (hint-following finds the new leader).
			misses++
			s.logf("cluster: heartbeat failed: %v", err)
			if misses >= 2 {
				misses = 0
				joined = s.joinCluster()
			}
		default:
			// HTTP-level failure from a live coordinator: keep beating. The
			// lease ladder walks us down and jobs route around us; the next
			// successful beat revives us.
			misses = 0
			s.logf("cluster: heartbeat failed: %v", err)
		}
	}
}

var errUnknownWorker = errors.New("coordinator does not know this worker")

// errUnreachable marks a transport-level heartbeat failure (no HTTP answer
// at all) — the only failure mode that suggests the coordinator host died.
var errUnreachable = errors.New("coordinator unreachable")

// notLeaderError is a coordinator's 409 "you're talking to the wrong node",
// carrying the leader hint to follow.
type notLeaderError struct {
	code string
	hint string
}

func (e *notLeaderError) Error() string {
	if e.hint == "" {
		return "coordinator rejected us (" + e.code + ", no leader hint)"
	}
	return "coordinator rejected us (" + e.code + "; leader hint " + e.hint + ")"
}

// joinCluster joins whichever coordinator answers as leader, following 409
// leader hints (each hint appended once) so a worker configured against the
// deposed coordinator still finds the new leader in one pass. It reports
// whether a join succeeded; failure is retried on the next beat.
func (s *Server) joinCluster() bool {
	cands := s.joinCandidates()
	visited := make(map[string]bool)
	for i := 0; i < len(cands); i++ {
		base := cands[i]
		if base == "" || visited[base] {
			continue
		}
		visited[base] = true
		err := s.tryJoin(base)
		if err == nil {
			return true
		}
		var notLeader *notLeaderError
		if errors.As(err, &notLeader) && notLeader.hint != "" {
			cands = append(cands, notLeader.hint)
		}
		s.logf("cluster: join %s failed: %v", base, err)
	}
	return false
}

func (s *Server) tryJoin(base string) error {
	body, _ := json.Marshal(joinRequest{ID: s.workerID(), URL: s.cfg.AdvertiseURL, Term: s.workerTerm.Load()})
	status, data, err := s.doJSON(base+"/v1/cluster/join", body)
	if err != nil {
		return err
	}
	switch {
	case status == http.StatusConflict:
		return rejectError(data)
	case status >= 300:
		return fmt.Errorf("%s answered %d", base, status)
	}
	var jr joinResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		return fmt.Errorf("undecodable join response from %s: %w", base, err)
	}
	leader := base
	if jr.LeaderURL != "" {
		leader = jr.LeaderURL
	}
	s.setLeaderView(leader, jr.PeerURL, jr.Term)
	return nil
}

func (s *Server) sendHeartbeat() error {
	s.leaderMu.Lock()
	target := s.leaderKnown
	s.leaderMu.Unlock()
	if target == "" {
		target = s.cfg.JoinURL
	}
	body, _ := json.Marshal(joinRequest{ID: s.workerID(), Term: s.workerTerm.Load()})
	status, data, err := s.doJSON(target+"/v1/cluster/heartbeat", body)
	if err != nil {
		return fmt.Errorf("%w: %v", errUnreachable, err)
	}
	switch {
	case status == http.StatusNotFound:
		return errUnknownWorker
	case status == http.StatusConflict:
		rerr := rejectError(data)
		var notLeader *notLeaderError
		if errors.As(rerr, &notLeader) && notLeader.hint != "" {
			s.setLeaderView(notLeader.hint, "", 0)
		}
		return rerr
	case status >= 300:
		return fmt.Errorf("%s answered %d", target, status)
	}
	return nil
}

// rejectError decodes a coordinator's 409 body into a notLeaderError carrying
// the leader hint (both not_leader and stale_term rejections end the same
// way: re-join the hinted leader).
func rejectError(data []byte) error {
	var rb cluster.RejectBody
	_ = json.Unmarshal(data, &rb)
	return &notLeaderError{code: rb.Error.Code, hint: rb.LeaderHint}
}

// doJSON POSTs body to url and returns the status and response body (capped
// at 1 MiB). Transport failures land in err; HTTP-level outcomes are the
// caller's to interpret.
func (s *Server) doJSON(url string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.HeartbeatInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// --- coordinator dispatch ---

// dispatchRetime places a retime job on the cluster, routed by its
// retimeKey, so repeats of a job the store does not hold land on the worker
// that solved it last. The error is either
// cluster.ErrUnavailable (degrade to local), a coordinator-side context
// error, or a definitive job failure translated back into the engine's error
// taxonomy so MapError classifies it exactly as a local failure.
func (s *Server) dispatchRetime(ctx context.Context, spec JobSpec, key string) (*Result, string, error) {
	optsJSON, err := json.Marshal(spec.Options)
	if err != nil {
		return nil, "", fmt.Errorf("%w: encoding options: %v", cluster.ErrUnavailable, err)
	}
	resp, workerID, err := s.dispatcher.Do(ctx, key, cluster.RunRequest{
		Kind:       cluster.KindRetime,
		BLIF:       spec.BLIF,
		Options:    optsJSON,
		Failpoints: spec.Failpoints,
	})
	if err != nil {
		var rerr *cluster.RemoteError
		if errors.As(err, &rerr) {
			return nil, workerID, sentinelFromRemote(rerr)
		}
		return nil, workerID, err
	}
	var res Result
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		// A worker answering garbage is a loss, not a job failure.
		return nil, workerID, fmt.Errorf("%w (undecodable result from %s: %v)", cluster.ErrUnavailable, workerID, err)
	}
	s.dispatched.Add(1)
	return &res, workerID, nil
}

// remotePointFn builds the explore.Options.Remote hook for a sweep: each
// store-missed point is offered to the cluster, routed by its own point key
// so repeats land warm. Any failure makes the sweep solve the point locally.
func (s *Server) remotePointFn(spec JobSpec) func(ctx context.Context, key string, phi int64) (*explore.Solution, error) {
	optsJSON, err := json.Marshal(spec.Options)
	if err != nil {
		return nil
	}
	return func(ctx context.Context, key string, phi int64) (*explore.Solution, error) {
		resp, _, err := s.dispatcher.Do(ctx, key, cluster.RunRequest{
			Kind:       cluster.KindExplorePoint,
			BLIF:       spec.BLIF,
			Options:    optsJSON,
			PeriodPS:   phi,
			Failpoints: spec.Failpoints,
		})
		if err != nil {
			return nil, err
		}
		var sol explore.Solution
		if err := json.Unmarshal(resp.Result, &sol); err != nil {
			return nil, fmt.Errorf("undecodable solution: %w", err)
		}
		s.remotePoints.Add(1)
		return &sol, nil
	}
}

// codeSentinel reverses the errmap: a worker's machine-readable failure code
// back to the sentinel that produced it, so a remote failure re-enters the
// coordinator's error taxonomy (and HTTP mapping) at the same rung.
var codeSentinel = buildCodeSentinel()

func buildCodeSentinel() map[string]error {
	out := map[string]error{
		CodeDeadlineExceeded: context.DeadlineExceeded,
		CodeCanceled:         context.Canceled,
		CodeBadRequest:       rterr.ErrMalformedInput,
	}
	for _, sn := range rterr.Sentinels() {
		out[sn.Name] = sn.Err
	}
	return out
}

func sentinelFromRemote(rerr *cluster.RemoteError) error {
	sentinel, ok := codeSentinel[rerr.Code]
	if !ok {
		sentinel = rterr.ErrInternal
	}
	return fmt.Errorf("remote: %s: %w", rerr.Detail, sentinel)
}
