package breaker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a settable Now seam.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := New(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.Now = clk.now
	return b, clk
}

func TestBreakerOpensAtThresholdAndCoolsDown(t *testing.T) {
	b, clk := newTestBreaker(3, time.Second)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("breaker open after %d failures, threshold is 3", i)
		}
		b.Failure()
	}
	if b.Allow() {
		t.Fatal("breaker still closed at threshold")
	}
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("probe admitted before the cooldown elapsed")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("no probe admitted after the cooldown")
	}
	// Probe success closes the breaker fully.
	b.Success()
	if !b.Allow() || !b.Allow() {
		t.Fatal("breaker not closed after a successful probe")
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted")
	}
	b.Failure() // the probe itself failed
	if b.Allow() {
		t.Fatal("breaker closed after a failed probe")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no second probe after a fresh cooldown")
	}
}

func TestBreakerNilAlwaysAllows(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker denied")
	}
	b.Failure()
	b.Success()
	if New(-1, 0) != nil {
		t.Fatal("negative threshold should disable the breaker")
	}
}

// TestBreakerHalfOpenAdmitsExactlyOneProbe is the self-healing contract a
// compute route's breaker leans on: when a breaker's cooldown lapses under
// concurrent load, exactly one caller is admitted to probe the dependency
// and every other caller keeps failing fast — a thundering herd against a
// barely-recovering dependency would defeat the point of breaking the
// circuit.
func TestBreakerHalfOpenAdmitsExactlyOneProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker not open")
	}
	clk.advance(time.Second)

	const callers = 64
	var admitted atomic.Int64
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			if b.Allow() {
				admitted.Add(1)
			}
		}()
	}
	start.Done()
	done.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("%d concurrent callers admitted in half-open, want exactly 1", got)
	}

	// While the probe is in flight, later arrivals still fail fast even
	// after more wall time passes.
	clk.advance(time.Hour)
	if b.Allow() {
		t.Fatal("second probe admitted while the first is in flight")
	}
	// The losing callers' fast-fails must not have disturbed the state:
	// the one probe's success closes the circuit for everyone.
	b.Success()
	var reopened atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !b.Allow() {
				reopened.Add(1)
			}
		}()
	}
	wg.Wait()
	if reopened.Load() != 0 {
		t.Fatalf("%d callers denied after the probe succeeded", reopened.Load())
	}
}
