// Package parallel provides the small fan-out helper the experiment
// drivers use to evaluate independent (model, buffer-size, scheme) cells
// concurrently. It follows the worker-pool idiom from Effective Go: a fixed
// number of goroutines draining an index channel, synchronised with a
// WaitGroup — no shared mutable state beyond the caller's pre-sized result
// slices. It also provides the context-aware counting Semaphore the HTTP
// server uses to bound in-flight planner and simulator executions.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Panic wraps a panic value recovered from a worker goroutine so the caller
// can distinguish a propagated worker panic from one of its own.
type Panic struct {
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at the time of the panic.
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", p.Value, p.Stack)
}

// workerCount resolves a caller's worker knob: 0 means "let the runtime
// decide" (GOMAXPROCS, so fan-out scales with cores rather than a
// hardcoded literal), positive counts are honoured as-is, and negative
// counts are a programming error worth failing loudly on — a silent
// default would mask the caller's broken arithmetic.
func workerCount(workers int) int {
	if workers < 0 {
		panic(fmt.Sprintf("parallel: negative worker count %d (0 selects GOMAXPROCS)", workers))
	}
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEachCtx runs f(ctx, i) for every i in [0, n) over workers goroutines
// (GOMAXPROCS when workers is 0; negative counts panic). f must only write
// to per-index state. It stops dispatching new indices as soon as ctx is
// cancelled or any call returns a non-nil error, drains the calls already
// running, and returns the first error (first-error-wins; ctx.Err() when
// cancellation came first). Indices not yet dispatched at that point never
// run.
//
// A panic inside f does not kill the process from an anonymous worker
// goroutine: the first panic is recovered, the remaining indices still run,
// and after all workers finish the panic is re-raised on the caller's
// goroutine wrapped in *Panic — so a server handler can convert it into a
// 500 with recover(). A single worker runs on the caller's goroutine, where
// the panic propagates at once, wrapped the same way.
func ForEachCtx(ctx context.Context, n, workers int, f func(ctx context.Context, i int) error) error {
	workers = workerCount(workers)
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	var (
		mu    sync.Mutex
		first error
	)
	record := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return first != nil
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				record(err)
				break
			}
			if err := callSafeErr(ctx, f, i, nil); err != nil {
				record(err)
				break
			}
		}
		return first
	}
	var (
		panicOnce sync.Once
		panicked  *Panic
	)
	recordPanic := func(p *Panic) { panicOnce.Do(func() { panicked = p }) }
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // past cancellation: drain the channel without running
				}
				record(callSafeErr(ctx, f, i, recordPanic))
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			record(err)
			break
		}
		if failed() {
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			record(ctx.Err())
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return first
}

// callSafeErr invokes f(ctx, i), converting a panic into *Panic. With
// record nil (single-worker path) the panic re-raises on the caller's
// goroutine; otherwise it is recorded and the worker keeps draining.
func callSafeErr(ctx context.Context, f func(context.Context, int) error, i int, record func(*Panic)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(*Panic)
			if !ok {
				p = &Panic{Value: r, Stack: stack()}
			}
			if record == nil {
				panic(p)
			}
			record(p)
		}
	}()
	return f(ctx, i)
}

func stack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// MapCtx runs f over [0, n) like ForEachCtx and collects the results in
// order. On cancellation or error the returned slice holds zero values at
// the indices that never ran; the error tells the caller not to use it.
func MapCtx[T any](ctx context.Context, n, workers int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := f(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
