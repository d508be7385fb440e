package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if want < 1 {
		want = 1
	}
	if got := Workers(0); got != want {
		t.Fatalf("Workers(0) = %d, want %d", got, want)
	}
	if got := Workers(-3); got != want {
		t.Fatalf("Workers(-3) = %d, want %d", got, want)
	}
}

func TestRunCoversEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		const items = 100
		counts := make([]int64, items)
		err := Run(context.Background(), workers, items, func(_, i int) error {
			atomic.AddInt64(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := Run(context.Background(), workers, 50, func(_, i int) error {
			if i == 17 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var done int64
		err := Run(ctx, workers, 1000, func(_, i int) error {
			atomic.AddInt64(&done, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if done == 1000 {
			t.Fatalf("workers=%d: cancelled run completed all items", workers)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	err := Run(context.Background(), 4, 0, func(_, i int) error {
		t.Fatal("fn called for empty run")
		return nil
	})
	if err != nil {
		t.Fatalf("empty run: %v", err)
	}
}
