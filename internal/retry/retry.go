// Package retry is the shared backoff policy of the retiming service: a
// capped, jittered exponential schedule with a context-aware sleep. It paces
// the cluster dispatcher's re-routing loop, the HA lease heartbeat and the
// result store's remote-save retries, so every surface backs off the same
// way. Jobs themselves are never retried: each runs once.
//
// The schedule is a pure function of the attempt number plus an injected
// randomness source, so tests pin Rand (and drive Wait with an already
// expired context) to make every delay deterministic.
package retry

import (
	"context"
	"math/rand"
	"time"
)

// Schedule describes a capped exponential backoff: attempt n (0-based)
// nominally waits Base·Factorⁿ, capped at Cap, with up to ±Jitter of the
// nominal delay added or removed at random.
type Schedule struct {
	// Base is the nominal first delay (default 100ms).
	Base time.Duration
	// Cap bounds every delay (default 5s). Jitter applies after the cap, so
	// the effective bound is Cap·(1+Jitter).
	Cap time.Duration
	// Factor is the per-attempt growth (default 2; values below 1 are
	// treated as 1, a constant schedule).
	Factor float64
	// Jitter is the randomized fraction of each delay, in [0, 1]: the
	// delay is scaled by a uniform factor in [1-Jitter, 1+Jitter]. 0 means
	// a fully deterministic schedule.
	Jitter float64
	// Rand supplies uniform values in [0, 1) for the jitter. nil uses the
	// global math/rand source; tests inject a fixed sequence.
	Rand func() float64
}

func (s Schedule) withDefaults() Schedule {
	if s.Base <= 0 {
		s.Base = 100 * time.Millisecond
	}
	if s.Cap <= 0 {
		s.Cap = 5 * time.Second
	}
	if s.Factor < 1 {
		if s.Factor == 0 {
			s.Factor = 2
		} else {
			s.Factor = 1
		}
	}
	if s.Rand == nil {
		s.Rand = rand.Float64
	}
	return s
}

// Delay returns the delay before retry attempt n (0-based: Delay(0) follows
// the first failure). The exponential growth saturates at Cap before jitter
// is applied, so overflow cannot produce a negative or wild delay.
func (s Schedule) Delay(attempt int) time.Duration {
	s = s.withDefaults()
	d := float64(s.Base)
	cap := float64(s.Cap)
	for i := 0; i < attempt && d < cap; i++ {
		d *= s.Factor
	}
	if d > cap {
		d = cap
	}
	if s.Jitter > 0 {
		d *= 1 - s.Jitter + 2*s.Jitter*s.Rand()
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Wait sleeps for Delay(attempt), honoring ctx: cancellation during the
// sleep returns ctx.Err() immediately. A zero delay still checks ctx once,
// so a canceled context never sneaks past the backoff.
func (s Schedule) Wait(ctx context.Context, attempt int) error {
	d := s.Delay(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
