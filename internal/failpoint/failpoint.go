// Package failpoint is the fault-injection layer of the retiming engine: a
// registry of named sites at which tests (and the chaos suite of
// internal/server) can deterministically inject panics, taxonomy errors,
// artificial latency, or simulated cancellation.
//
// A site is a string like "graph.minperiod" evaluated by a single
// Inject(ctx, site) call placed in production code. The fast path — no
// failpoint armed anywhere in the process — is one atomic load, so the hooks
// are cheap enough to live permanently in solver inner loops. The sites are:
//
//   - the engine: "graph.feasible" (one lazy feasibility round),
//     "graph.minperiod" (a minimum-period search), "justify.backward" (a
//     backward justification), "pass.<name>" (each pass of the retiming
//     flow, e.g. "pass.minarea") and "server.job" (one service job);
//   - the result store: "store.load", "store.save" and "store.remote" (a
//     shared-store round trip);
//   - the cluster: "cluster.heartbeat" (a worker lease beat),
//     "cluster.dispatch" (routing a job to the workers), "cluster.forward"
//     (one HTTP attempt at a worker), and the HA pair's "cluster.replicate"
//     and "cluster.lease" (the two directions of the leader↔standby stream;
//     arming both globally simulates a symmetric partition in-process).
//
// Failpoints are armed two ways:
//
//   - Globally, via Enable/ArmFromEnv. The MCRETIMING_FAILPOINTS environment
//     variable ("site=action;site=action") arms points process-wide; the
//     mcretime, mcbench and mcretimed binaries call ArmFromEnv at startup.
//   - Per context, via ParseSet + With. The retiming service attaches a Set
//     to one job's context so chaos tests can crash job A while job B, running
//     concurrently in the same process, is untouched.
//
// The action grammar is
//
//	[N*]kind[(arg)]
//
// where the optional N* prefix fires the action for the first N evaluations
// only (then the site goes inert), and kind is one of
//
//	panic            panic with a generic message
//	panic(msg)       panic with msg
//	sleep(dur)       sleep for dur (time.ParseDuration), honoring ctx:
//	                 cancellation during the sleep returns ctx.Err()
//	error(code)      return an error wrapping the named rterr sentinel:
//	                 malformed | infeasible | budget | conflict | invariant |
//	                 internal | deadline (context.DeadlineExceeded)
//	cancel           return context.Canceled, simulating a cancellation
//	                 observed at the site
//
// The package sits next to rterr at the bottom of the dependency graph and
// must not import any other internal package.
package failpoint

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcretiming/internal/rterr"
)

// EnvVar names the environment variable ArmFromEnv reads.
const EnvVar = "MCRETIMING_FAILPOINTS"

type kind int

const (
	actPanic kind = iota
	actSleep
	actError
	actCancel
)

// action is one parsed failpoint behavior. remaining < 0 means unlimited.
type action struct {
	kind  kind
	msg   string
	err   error
	delay time.Duration

	mu        sync.Mutex
	remaining int64
}

// take consumes one firing; it reports false once a counted action ran dry.
func (a *action) take() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.remaining == 0 {
		return false
	}
	if a.remaining > 0 {
		a.remaining--
	}
	return true
}

// armed counts the process's active failpoint sources: every globally enabled
// site plus every context-attached Set. Inject returns immediately while it
// is zero, so unfaulted runs pay one atomic load per site.
var armed atomic.Int64

var (
	globalMu sync.Mutex
	global   = map[string]*action{}
)

// errcodes maps the error(...) argument to the sentinel it wraps.
var errcodes = map[string]error{
	"malformed":  rterr.ErrMalformedInput,
	"infeasible": rterr.ErrInfeasiblePeriod,
	"budget":     rterr.ErrBudgetExceeded,
	"conflict":   rterr.ErrJustifyConflict,
	"invariant":  rterr.ErrInvariant,
	"internal":   rterr.ErrInternal,
	"deadline":   context.DeadlineExceeded,
}

// parseAction parses one [N*]kind[(arg)] term.
func parseAction(spec string) (*action, error) {
	a := &action{remaining: -1}
	if i := strings.Index(spec, "*"); i >= 0 {
		n, err := strconv.ParseInt(spec[:i], 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("failpoint: bad count in %q", spec)
		}
		a.remaining = n
		spec = spec[i+1:]
	}
	name, arg := spec, ""
	if i := strings.Index(spec, "("); i >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("failpoint: unbalanced parens in %q", spec)
		}
		name, arg = spec[:i], spec[i+1:len(spec)-1]
	}
	switch name {
	case "panic":
		a.kind = actPanic
		a.msg = arg
		if a.msg == "" {
			a.msg = "injected panic"
		}
	case "sleep":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return nil, fmt.Errorf("failpoint: bad sleep duration %q: %v", arg, err)
		}
		a.kind = actSleep
		a.delay = d
	case "error":
		sentinel, ok := errcodes[arg]
		if !ok {
			return nil, fmt.Errorf("failpoint: unknown error code %q", arg)
		}
		a.kind = actError
		a.err = sentinel
	case "cancel":
		a.kind = actCancel
	default:
		return nil, fmt.Errorf("failpoint: unknown action %q", name)
	}
	return a, nil
}

// Enable arms site globally with the given action spec, replacing any
// previous arming of the site.
func Enable(site, spec string) error {
	a, err := parseAction(spec)
	if err != nil {
		return err
	}
	globalMu.Lock()
	defer globalMu.Unlock()
	if _, ok := global[site]; !ok {
		armed.Add(1)
	}
	global[site] = a
	return nil
}

// Disable disarms a globally enabled site. Disabling an unarmed site is a
// no-op.
func Disable(site string) {
	globalMu.Lock()
	defer globalMu.Unlock()
	if _, ok := global[site]; ok {
		delete(global, site)
		armed.Add(-1)
	}
}

// Reset disarms every globally enabled site. Context-attached Sets are
// unaffected (their owners release them).
func Reset() {
	globalMu.Lock()
	defer globalMu.Unlock()
	armed.Add(-int64(len(global)))
	global = map[string]*action{}
}

// ArmFromEnv arms the sites listed in MCRETIMING_FAILPOINTS
// ("site=action;site=action"). An unset or empty variable is a no-op;
// a malformed one is an error so typos do not silently disable chaos runs.
func ArmFromEnv() error {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil
	}
	set, err := ParseSet(spec)
	if err != nil {
		return err
	}
	for site, a := range set.actions {
		globalMu.Lock()
		if _, ok := global[site]; !ok {
			armed.Add(1)
		}
		global[site] = a
		globalMu.Unlock()
	}
	return nil
}

// Set is a group of armed failpoints scoped to one context tree — one job of
// the retiming service, one test — instead of the whole process.
type Set struct {
	actions map[string]*action
}

// ParseSet parses a "site=action;site=action" spec (the same grammar as the
// environment variable) into a Set. An empty spec yields an empty set.
func ParseSet(spec string) (*Set, error) {
	s := &Set{actions: map[string]*action{}}
	for _, term := range strings.Split(spec, ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		site, as, ok := strings.Cut(term, "=")
		if !ok || site == "" {
			return nil, fmt.Errorf("failpoint: bad term %q (want site=action)", term)
		}
		a, err := parseAction(as)
		if err != nil {
			return nil, err
		}
		s.actions[strings.TrimSpace(site)] = a
	}
	return s, nil
}

// Sites returns the armed site names of the set, for diagnostics.
func (s *Set) Sites() []string {
	out := make([]string, 0, len(s.actions))
	for site := range s.actions {
		out = append(out, site)
	}
	return out
}

type ctxKey struct{}

// With attaches set to ctx and arms it. The returned release function MUST be
// called when the scoped work finishes; it disarms the set (the fast path
// stays fast only while no failpoints are live).
func With(ctx context.Context, set *Set) (context.Context, func()) {
	if set == nil || len(set.actions) == 0 {
		return ctx, func() {}
	}
	armed.Add(1)
	var once sync.Once
	release := func() { once.Do(func() { armed.Add(-1) }) }
	return context.WithValue(ctx, ctxKey{}, set), release
}

// Inject evaluates the named site: it returns nil when the site is not armed
// (the common case — one atomic load), and otherwise performs the armed
// action — panicking, sleeping (honoring ctx), or returning the configured
// error. Context-scoped sets take precedence over global arming.
func Inject(ctx context.Context, site string) error {
	if armed.Load() == 0 {
		return nil
	}
	var a *action
	if set, ok := ctx.Value(ctxKey{}).(*Set); ok {
		a = set.actions[site]
	}
	if a == nil {
		globalMu.Lock()
		a = global[site]
		globalMu.Unlock()
	}
	if a == nil || !a.take() {
		return nil
	}
	switch a.kind {
	case actPanic:
		panic(fmt.Sprintf("failpoint %s: %s", site, a.msg))
	case actSleep:
		t := time.NewTimer(a.delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		return nil
	case actError:
		return fmt.Errorf("failpoint %s: injected: %w", site, a.err)
	case actCancel:
		return fmt.Errorf("failpoint %s: injected: %w", site, context.Canceled)
	}
	return nil
}
