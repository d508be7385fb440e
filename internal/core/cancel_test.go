package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"mcretiming/internal/gen"
	"mcretiming/internal/hdlio"
	"mcretiming/internal/logic"
	"mcretiming/internal/netlist"
	"mcretiming/internal/trace"
)

// snapshot serializes c so mutation can be detected byte-for-byte.
func snapshot(t *testing.T, c *netlist.Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hdlio.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRetimeCtxAlreadyCancelled(t *testing.T) {
	objectives := []struct {
		name string
		opts Options
	}{
		{"minperiod", Options{Objective: MinPeriod}},
		{"minarea", Options{Objective: MinAreaAtMinPeriod}},
		{"at-period", Options{Objective: MinAreaAtPeriod, TargetPeriod: 11000}},
	}
	for _, tc := range objectives {
		t.Run(tc.name, func(t *testing.T) {
			c := fig1Circuit(t)
			before := snapshot(t, c)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			out, rep, err := RetimeCtx(ctx, c, tc.opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if out != nil || rep != nil {
				t.Error("cancelled run returned a result")
			}
			if !bytes.Equal(before, snapshot(t, c)) {
				t.Error("cancelled run mutated the input circuit")
			}
		})
	}
}

// A deadline that has already passed must abort a large circuit promptly —
// well before the seconds a full solve would take.
func TestRetimeCtxExpiredDeadline(t *testing.T) {
	c, err := gen.Circuit(9) // C9: the logic-heavy deep profile
	if err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, c)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	start := time.Now()
	_, _, err = RetimeCtx(ctx, c, Options{Objective: MinAreaAtMinPeriod})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled run took %v, want prompt abort", elapsed)
	}
	if !bytes.Equal(before, snapshot(t, c)) {
		t.Error("cancelled run mutated the input circuit")
	}
}

// cancelOnSpan fires the cancel func when the named span begins, driving a
// deterministic mid-run cancellation inside a specific pass.
type cancelOnSpan struct {
	trace.Sink
	target string
	cancel context.CancelFunc
}

func (s *cancelOnSpan) BeginSpan(name string) {
	s.Sink.BeginSpan(name)
	if name == s.target {
		s.cancel()
	}
}

// Mid-run cancellation: the flow's pre-pass check has already passed when
// the span begins, so the solver's own cancellation polls must catch it.
func TestRetimeCtxCancelInsideSolverPasses(t *testing.T) {
	for _, target := range []string{PassMinPeriod, PassMinArea, PassRelocate} {
		t.Run(target, func(t *testing.T) {
			// The sync-reset backward circuit routes the relocate pass through
			// justification, covering its cancellation polls too.
			c := syncResetCircuit(t)
			before := snapshot(t, c)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &cancelOnSpan{Sink: trace.Nop(), target: target, cancel: cancel}
			_, _, err := RetimeCtx(ctx, c, Options{Objective: MinAreaAtMinPeriod, Trace: sink})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !bytes.Equal(before, snapshot(t, c)) {
				t.Error("cancelled run mutated the input circuit")
			}
		})
	}
}

// syncResetCircuit is the TestSyncResetBackwardEquivalent circuit: backward
// moves of a sync-clear register exercise justification during relocation.
func syncResetCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("srb")
	a := c.AddInput("a")
	b := c.AddInput("b")
	clk := c.AddInput("clk")
	rst := c.AddInput("rst")
	_, g1 := c.AddGate("g1", netlist.Xor, []netlist.SignalID{a, b}, 9000)
	_, g2 := c.AddGate("g2", netlist.Nand, []netlist.SignalID{g1, a}, 1000)
	r1, q1 := c.AddReg("r1", g2, clk)
	c.Regs[r1].SR = rst
	c.Regs[r1].SRVal = logic.B1
	_, o := c.AddGate("g3", netlist.Not, []netlist.SignalID{q1}, 1000)
	c.MarkOutput(o)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}
