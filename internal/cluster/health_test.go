package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"scratchmem/internal/faultinject"
)

// failingProbe fails for the members in its set and succeeds elsewhere.
type failingProbe struct {
	mu   sync.Mutex
	down map[string]bool
}

func (f *failingProbe) set(member string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down == nil {
		f.down = make(map[string]bool)
	}
	f.down[member] = down
}

func (f *failingProbe) probe(ctx context.Context, baseURL string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[baseURL] {
		return errors.New("connection refused")
	}
	return nil
}

func TestHealthMarksDeadAfterConsecutiveFailures(t *testing.T) {
	fp := &failingProbe{}
	fp.set(memberB, true)
	h := NewHealth([]string{memberA, memberB}, memberA, fp.probe, HealthOptions{DeadAfter: 2})

	// Fresh trackers are optimistic: everyone starts alive.
	if !h.Alive(memberB) {
		t.Fatal("member dead before any probe")
	}
	h.ProbeNow(context.Background())
	if !h.Alive(memberB) {
		t.Fatal("one failure below DeadAfter already marked the member dead")
	}
	h.ProbeNow(context.Background())
	if h.Alive(memberB) {
		t.Fatal("member alive after DeadAfter consecutive failures")
	}
	view := h.View()
	if len(view) != 1 || view[0].Member != memberB || view[0].Alive ||
		view[0].ConsecutiveFailures != 2 || view[0].LastError == "" {
		t.Fatalf("view = %+v", view)
	}
	// One success heals immediately.
	fp.set(memberB, false)
	h.ProbeNow(context.Background())
	if !h.Alive(memberB) {
		t.Fatal("member still dead after a successful probe")
	}
	if v := h.View(); v[0].ConsecutiveFailures != 0 || v[0].LastError != "" {
		t.Fatalf("healed view = %+v", v[0])
	}
}

func TestHealthNilAndUntracked(t *testing.T) {
	var h *Health
	if !h.Alive(memberB) {
		t.Fatal("nil tracker retracted liveness")
	}
	if h.View() != nil {
		t.Fatal("nil tracker produced a view")
	}
	h.Stop() // must not panic
	h.ProbeNow(context.Background())

	real := NewHealth([]string{memberA, memberB}, memberA, (&failingProbe{}).probe, HealthOptions{})
	if !real.Alive(memberA) {
		t.Fatal("self (untracked) not alive")
	}
	if !real.Alive("http://stranger:1") {
		t.Fatal("untracked member not alive")
	}
}

func TestHealthLoopAndStop(t *testing.T) {
	var mu sync.Mutex
	probes := 0
	h := NewHealth([]string{memberA, memberB}, memberA, func(context.Context, string) error {
		mu.Lock()
		probes++
		mu.Unlock()
		return nil
	}, HealthOptions{Interval: time.Millisecond})
	h.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := probes
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe loop ran %d times, want >= 3", n)
		}
		time.Sleep(time.Millisecond)
	}
	h.Stop()
	// Stop waits for the loop, so no probe runs after it returns.
	mu.Lock()
	stopped := probes
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	after := probes
	mu.Unlock()
	if after != stopped {
		t.Errorf("%d probes ran after Stop returned", after-stopped)
	}
	h.Stop() // idempotent
}

func TestHealthFaultInjection(t *testing.T) {
	faultinject.Enable(1, faultinject.Fault{Site: "cluster.health", Kind: faultinject.KindError, P: 1})
	defer faultinject.Disable()

	probed := false
	h := NewHealth([]string{memberA, memberB}, memberA, func(context.Context, string) error {
		probed = true
		return nil
	}, HealthOptions{DeadAfter: 1})
	h.ProbeNow(context.Background())
	if probed {
		t.Fatal("injected fault did not stop the probe call")
	}
	if h.Alive(memberB) {
		t.Fatal("member alive despite injected probe failures")
	}
}
