package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachEmpty(t *testing.T) {
	called := false
	f := func(context.Context, int) error { called = true; return nil }
	for _, n := range []int{0, -3} {
		if err := ForEachCtx(context.Background(), n, 4, f); err != nil {
			t.Errorf("ForEachCtx(n=%d) = %v", n, err)
		}
	}
	if called {
		t.Error("ForEachCtx called f for n <= 0")
	}
}

func TestMapZero(t *testing.T) {
	got, err := MapCtx(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Errorf("MapCtx(0) = %d elements, %v", len(got), err)
	}
}

func TestForEachFirstPanicWins(t *testing.T) {
	defer func() {
		r := recover()
		p, ok := r.(*Panic)
		if !ok {
			t.Fatalf("recovered %T, want *Panic", r)
		}
		if _, isInt := p.Value.(int); !isInt {
			t.Errorf("panic value %v (%T), want an index", p.Value, p.Value)
		}
	}()
	ForEachCtx(context.Background(), 32, 8, func(_ context.Context, i int) error { panic(i) })
}

func TestForEachCtxCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 100
		seen := make([]int32, n)
		err := ForEachCtx(context.Background(), n, workers, func(_ context.Context, i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := ForEachCtx(ctx, 10, 4, func(context.Context, int) error {
		called = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("f ran despite pre-canceled context")
	}
}

func TestForEachCtxCancelMidFlight(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		n := 1000
		var started int32
		release := make(chan struct{})
		err := ForEachCtx(ctx, n, workers, func(ctx context.Context, i int) error {
			if atomic.AddInt32(&started, 1) == int32(workers) {
				cancel() // every worker is now mid-flight; stop dispatching
				close(release)
			}
			<-release
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight calls drain; nothing new is dispatched after cancel, so
		// far fewer than n indices ran. Allow generous slack for handoffs
		// already sitting in the channel.
		if got := atomic.LoadInt32(&started); got > int32(workers)+2 {
			t.Errorf("workers=%d: %d calls started after cancel, want <= %d", workers, got, workers+2)
		}
	}
}

func TestForEachCtxFirstErrorWinsAndStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		boom := errors.New("boom")
		var calls int32
		err := ForEachCtx(context.Background(), 1000, workers, func(_ context.Context, i int) error {
			atomic.AddInt32(&calls, 1)
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		// The feeder checks for a recorded error before every dispatch, so
		// at most a handful of calls beyond the pool width ever start.
		if got := atomic.LoadInt32(&calls); got > int32(workers)*2+2 {
			t.Errorf("workers=%d: %d calls ran after first error, want <= %d", workers, got, workers*2+2)
		}
	}
}

func TestForEachCtxDrainsRunningWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := 4
	var inFlight, done int32
	err := ForEachCtx(ctx, 100, workers, func(ctx context.Context, i int) error {
		if atomic.AddInt32(&inFlight, 1) == int32(workers) {
			cancel()
		}
		// Simulate work that finishes after cancellation: ForEachCtx must
		// wait for it (drain), not abandon the goroutine.
		time.Sleep(5 * time.Millisecond)
		atomic.AddInt32(&done, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := atomic.LoadInt32(&done); d < int32(workers) {
		t.Errorf("only %d in-flight calls completed before return, want >= %d", d, workers)
	}
}

func TestForEachCtxPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n := 50
		var visited int32
		func() {
			defer func() {
				r := recover()
				p, ok := r.(*Panic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *Panic", workers, r)
				}
				if p.Value != "boom 3" {
					t.Errorf("workers=%d: panic value %v, want boom 3", workers, p.Value)
				}
				if len(p.Stack) == 0 {
					t.Errorf("workers=%d: panic carries no stack", workers)
				}
			}()
			ForEachCtx(context.Background(), n, workers, func(_ context.Context, i int) error {
				atomic.AddInt32(&visited, 1)
				if i == 3 {
					panic("boom 3")
				}
				return nil
			})
		}()
		// The pool must keep draining after a panic so the feeder never
		// deadlocks; with multiple workers every index still runs.
		if workers > 1 && visited != int32(n) {
			t.Errorf("workers=%d: visited %d of %d indices after panic", workers, visited, n)
		}
	}
}

func TestMapCtxPreservesOrder(t *testing.T) {
	got, err := MapCtx(context.Background(), 50, 8, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapCtxError(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapCtx(context.Background(), 20, 4, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestWorkerCountDefaultsToGOMAXPROCS: a zero worker knob resolves to the
// runtime's GOMAXPROCS rather than any hardcoded literal.
func TestWorkerCountDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := workerCount(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("workerCount(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := workerCount(3); got != 3 {
		t.Fatalf("workerCount(3) = %d, want 3", got)
	}
	// The zero default actually runs work (and from more than one
	// goroutine when the machine has them).
	var n atomic.Int64
	if err := ForEachCtx(context.Background(), 100, 0, func(context.Context, int) error { n.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ForEachCtx with default workers ran %d calls, want 100", n.Load())
	}
	out, err := MapCtx(context.Background(), 10, 0, func(ctx context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("MapCtx[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestNegativeWorkersPanic: a negative worker count is a programming
// error and fails loudly, naming the offending value.
func TestNegativeWorkersPanic(t *testing.T) {
	for name, call := range map[string]func(){
		"ForEachCtx": func() { _ = ForEachCtx(context.Background(), 1, -2, func(context.Context, int) error { return nil }) },
		"ForEachCtx/empty": func() {
			_ = ForEachCtx(context.Background(), 0, -1, func(context.Context, int) error { return nil })
		},
		"MapCtx": func() {
			_, _ = MapCtx(context.Background(), 1, -3, func(context.Context, int) (int, error) { return 0, nil })
		},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s with negative workers did not panic", name)
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "negative worker count") {
					t.Errorf("%s panic = %v, want a message naming the negative worker count", name, r)
				}
			}()
			call()
		}()
	}
}
