package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"mcretiming/internal/core"
)

// median returns the middle of xs, the mean of the two middles for an even
// count, and 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quality is a retiming result's before/after figures.
type quality struct {
	periodBefore, periodAfter int64
	regsBefore, regsAfter     int
}

func qualityOf(rep *core.Report) quality {
	return quality{rep.PeriodBefore, rep.PeriodAfter, rep.RegsBefore, rep.RegsAfter}
}

// qualityRatios returns the geometric means over qs of the after/before
// clock period and register count.
func qualityRatios(qs []quality) (period, regs float64) {
	if len(qs) == 0 {
		return 0, 0
	}
	var lp, lr float64
	for _, q := range qs {
		lp += math.Log(float64(q.periodAfter) / float64(q.periodBefore))
		lr += math.Log(float64(q.regsAfter) / float64(q.regsBefore))
	}
	n := float64(len(qs))
	return math.Exp(lp / n), math.Exp(lr / n)
}

const mb = 1e6

// setupRepeats is how often a run repeats its set-up. setup_s is the median,
// which keeps that figure steady enough to hold its bound.
const setupRepeats = 7

// setUp runs build setupRepeats times, keeps the last result, releases the
// earlier ones with drop (if given), and returns the median time in seconds.
func setUp[T any](build func() (T, error), drop func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && drop != nil {
			drop(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// memPeak samples the process's resident Go memory — everything the runtime
// has mapped minus what it has returned to the OS — until stopped, and keeps
// the peak of each window of the sampled phase. Starting it collects
// garbage, so the phase starts from its live heap.
type memPeak struct {
	stop, done chan struct{}
	peaks      []uint64 // one per window, the last one still open
}

// startMemPeak starts sampling; window 0 makes the whole phase one window.
func startMemPeak(window time.Duration) *memPeak {
	runtime.GC()
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{}), peaks: []uint64{residentBytes()}}
	go func() {
		defer close(m.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		opened := time.Now()
		for {
			select {
			case <-m.stop:
				return
			case now := <-t.C:
				if window > 0 && now.Sub(opened) >= window {
					m.peaks = append(m.peaks, 0)
					opened = now
				}
				last := &m.peaks[len(m.peaks)-1]
				*last = max(*last, residentBytes())
			}
		}
	}()
	return m
}

// stopMB ends the sampling and returns the median of the windows' peaks in
// MB, which a single spike from collection timing does not move.
func (m *memPeak) stopMB() float64 {
	close(m.stop)
	<-m.done
	last := &m.peaks[len(m.peaks)-1]
	*last = max(*last, residentBytes())
	mbs := make([]float64, len(m.peaks))
	for i, p := range m.peaks {
		mbs[i] = float64(p) / mb
	}
	return median(mbs)
}

func residentBytes() uint64 {
	s := []rtmetrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// retainedHeapMB collects garbage and returns the live heap in MB.
func retainedHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / mb
}
