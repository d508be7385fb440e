package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"mcretiming/internal/failpoint"
	"mcretiming/internal/retry"
)

// ErrUnavailable reports that a job could not be placed on any worker: the
// ring is empty, every routable worker has been tried and failed, or the
// cluster.dispatch failpoint cut dispatch off. Callers treat it as "run the
// job locally" — the cluster degrading never fails a job, it only moves the
// work.
var ErrUnavailable = errors.New("cluster: no worker available")

// RunRequest is the unit of work a coordinator forwards to a worker over
// POST /v1/cluster/run. Options is opaque to this package (the server's wire
// options); the pair (BLIF, Options) plus Kind/PeriodPS fully determines the
// result, which is what makes re-routing safe: any worker, or the
// coordinator itself, computes byte-identical output.
type RunRequest struct {
	// Kind selects the flow: "retime" (full single-point job) or
	// "explore-point" (one design-space point at PeriodPS).
	Kind     string          `json:"kind"`
	BLIF     string          `json:"blif"`
	Options  json.RawMessage `json:"options,omitempty"`
	PeriodPS int64           `json:"period_ps,omitempty"`
	// Failpoints arms chaos sites for this run on the worker (gated by the
	// worker's -failpoints flag, exactly like job submissions).
	Failpoints string `json:"failpoints,omitempty"`
}

// Run kinds.
const (
	KindRetime       = "retime"
	KindExplorePoint = "explore-point"
)

// RunResponse is a worker's answer to a successful run. Result holds the
// kind-specific payload (the server's Result for retime, the explore
// package's Solution for explore-point).
type RunResponse struct {
	Result json.RawMessage `json:"result"`
}

// RemoteError is a structured job failure reported by a worker: the HTTP
// status and the service's {code, detail} error body. It is distinct from a
// transport failure — the worker is alive and answered; the job itself
// failed there.
type RemoteError struct {
	Status int
	Code   string
	Detail string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("worker: %s (%d): %s", e.Code, e.Status, e.Detail)
}

// Retryable reports whether the failure is worth re-routing to another
// worker: load shedding, draining, or an internal crash on that worker. All
// other codes are deterministic properties of the job input (malformed,
// infeasible, budget-exhausted, ...) that every node — including the local
// fallback — would reproduce, so the first answer stands.
func (e *RemoteError) Retryable() bool {
	switch e.Code {
	case "queue_full", "shutting_down", "internal":
		return true
	}
	return false
}

// Dispatcher forwards jobs to ring-routed workers, re-routing on loss.
type Dispatcher struct {
	Registry *Registry
	// Client is the forwarding HTTP client (default http.DefaultClient).
	Client *http.Client
	// AttemptTimeout bounds each forward attempt (default 60s); the job's
	// own ctx deadline still applies on top.
	AttemptTimeout time.Duration
	// MaxAttempts bounds forwards per job across workers (default 3).
	MaxAttempts int
	// Backoff paces re-routing after a worker is lost, draining or crashed
	// (default: 50ms base, 2s cap, factor 2, jitter 0.2). A worker that
	// sheds the run because its slots are full answered at once and is
	// healthy, so the next ring node is tried without a pause.
	Backoff retry.Schedule

	// Logf, when set, receives re-routing decisions.
	Logf func(format string, args ...any)
}

func (d *Dispatcher) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

func (d *Dispatcher) client() *http.Client {
	if d.Client != nil {
		return d.Client
	}
	return http.DefaultClient
}

func (d *Dispatcher) backoff() retry.Schedule {
	b := d.Backoff
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Cap <= 0 {
		b.Cap = 2 * time.Second
	}
	if b.Jitter == 0 {
		b.Jitter = 0.2
	}
	return b
}

// Do places req on the cluster: route by key, forward, and on worker loss
// demote the worker and re-route to the next ring node after a jittered
// backoff; a load-shedding worker (queue_full) is skipped without one. It
// returns the worker's response and the ID of the worker that produced it.
//
// Errors split three ways:
//   - ErrUnavailable: nothing healthy could take the job (or the
//     cluster.dispatch failpoint cut dispatch off) — run it locally;
//   - *RemoteError: a worker answered with a definitive job failure —
//     surface it, the job would fail identically anywhere;
//   - ctx errors: the job's own deadline/cancellation — stop entirely.
func (d *Dispatcher) Do(ctx context.Context, key string, req RunRequest) (*RunResponse, string, error) {
	if err := failpoint.Inject(ctx, "cluster.dispatch"); err != nil {
		return nil, "", fmt.Errorf("%w (dispatch failpoint: %v)", ErrUnavailable, err)
	}
	maxAttempts := d.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	backoff := d.backoff()
	skip := make(map[string]bool)
	// causes records, in attempt order, which worker failed and why, so the
	// eventual ErrUnavailable explains the whole demote+re-route path rather
	// than just the final straw.
	var causes []string
	pause := false // the last failure calls for a backoff before re-routing
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		w, ok := d.Registry.Route(key, skip)
		if !ok {
			break // every routable worker tried (or none exist)
		}
		if pause {
			if err := backoff.Wait(ctx, attempt-1); err != nil {
				return nil, "", err
			}
		}
		resp, rerr, err := d.forward(ctx, w.URL, req)
		if err != nil {
			// Transport-level loss: the worker is gone or unreachable.
			// Demote it and re-route to the next ring node.
			d.Registry.Demote(w.ID)
			skip[w.ID] = true
			pause = true
			causes = append(causes, fmt.Sprintf("%s: %v", w.ID, err))
			d.logf("cluster: forward to %s failed (%v); re-routing", w.ID, err)
			continue
		}
		if rerr != nil {
			if rerr.Retryable() {
				skip[w.ID] = true
				pause = rerr.Code != "queue_full"
				causes = append(causes, fmt.Sprintf("%s: %v", w.ID, rerr))
				d.logf("cluster: worker %s rejected job (%s); re-routing", w.ID, rerr.Code)
				continue
			}
			return nil, w.ID, rerr // definitive: any node would answer the same
		}
		d.Registry.Touch(w.ID)
		return resp, w.ID, nil
	}
	if len(causes) > 0 {
		return nil, "", fmt.Errorf("%w (exhausted %d worker(s): %s)",
			ErrUnavailable, len(causes), strings.Join(causes, "; "))
	}
	return nil, "", ErrUnavailable
}

// forward performs one HTTP attempt against a worker. The error return is
// transport-level (connection, timeout, undecodable response); rerr is a
// structured job failure from a live worker.
func (d *Dispatcher) forward(ctx context.Context, baseURL string, req RunRequest) (*RunResponse, *RemoteError, error) {
	if err := failpoint.Inject(ctx, "cluster.forward"); err != nil {
		return nil, nil, fmt.Errorf("forward failpoint: %w", err)
	}
	timeout := d.AttemptTimeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, baseURL+"/v1/cluster/run", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := d.client().Do(hreq)
	if err != nil {
		// A per-attempt timeout is a transport failure (re-route); the
		// job's own deadline must surface as such.
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		var eb struct {
			Error struct {
				Code   string `json:"code"`
				Detail string `json:"detail"`
			} `json:"error"`
		}
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code == "" {
			return nil, nil, fmt.Errorf("worker answered %d with unparseable body", hresp.StatusCode)
		}
		return nil, &RemoteError{Status: hresp.StatusCode, Code: eb.Error.Code, Detail: eb.Error.Detail}, nil
	}
	var resp RunResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, nil, fmt.Errorf("decoding worker response: %w", err)
	}
	return &resp, nil, nil
}
