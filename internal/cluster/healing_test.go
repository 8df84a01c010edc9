package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"scratchmem/internal/faultinject"
)

const memberC = "http://c:1"

func threeRing(t *testing.T) *Ring {
	t.Helper()
	r, err := NewRing([]string{memberA, memberB, memberC}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// keyOwnedWithSuccessor probes keys until one has the wanted (owner,
// successor) pair.
func keyOwnedWithSuccessor(t *testing.T, r *Ring, owner, succ string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("plan:key-%d", i)
		if r.Owner(k) != owner {
			continue
		}
		if s, ok := r.Successor(k); ok && s == succ {
			return k
		}
	}
	t.Fatalf("no probed key owned by %s with successor %s", owner, succ)
	return ""
}

// TestRingSuccessorIsPostFailureOwner pins the property replication relies
// on: the successor of a key is exactly the member that would own it if the
// owner left the ring, so a replica pushed there is already in the right
// place when the fleet needs it.
func TestRingSuccessorIsPostFailureOwner(t *testing.T) {
	full := threeRing(t)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("plan:prop-%d", i)
		owner := full.Owner(key)
		succ, ok := full.Successor(key)
		if !ok {
			t.Fatalf("no successor for %s on a 3-member ring", key)
		}
		if succ == owner {
			t.Fatalf("successor of %s equals its owner %s", key, owner)
		}
		var survivors []string
		for _, m := range full.Members() {
			if m != owner {
				survivors = append(survivors, m)
			}
		}
		reduced, err := NewRing(survivors, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := reduced.Owner(key); got != succ {
			t.Fatalf("key %s: successor %s but post-failure owner %s", key, succ, got)
		}
	}
}

func TestRingSuccessorSingleMember(t *testing.T) {
	r, err := NewRing([]string{memberA}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if succ, ok := r.Successor("plan:x"); ok {
		t.Fatalf("single-member ring produced successor %s", succ)
	}
}

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
	h := NewHealth(twoRing(t), memberA, fp.probe, HealthOptions{DeadAfter: 2})

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

	real := NewHealth(twoRing(t), memberA, (&failingProbe{}).probe, HealthOptions{})
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
	h := NewHealth(twoRing(t), memberA, func(context.Context, string) error {
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
	h := NewHealth(twoRing(t), memberA, func(context.Context, string) error {
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

// recordingPush collects replication pushes.
type recordingPush struct {
	mu    sync.Mutex
	sends []string // successor base URLs, in send order
	err   error
}

func (r *recordingPush) push(ctx context.Context, baseURL string, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	r.sends = append(r.sends, baseURL)
	return nil
}

func (r *recordingPush) got() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.sends...)
}

func flushReplicator(t *testing.T, r *Replicator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatorPushesToSuccessor(t *testing.T) {
	ring := twoRing(t)
	rp := &recordingPush{}
	r := NewReplicator(ring, memberA, rp.push, nil, ReplicatorOptions{})
	r.Start()
	defer r.Stop()

	key := keyOwnedBy(t, ring, memberA)
	r.Enqueue(context.Background(), key, []byte("payload"))
	flushReplicator(t, r)
	if got := rp.got(); len(got) != 1 || got[0] != memberB {
		t.Fatalf("pushes = %v, want [%s]", got, memberB)
	}
	if st := r.Stats(); st.Enqueued != 1 || st.Sent != 1 || st.Errors+st.Dropped+st.Skipped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplicatorSkipsSelfAndSingleMember(t *testing.T) {
	// Two-member ring, self = A: a key OWNED by B has successor A, which is
	// us — nothing to push.
	ring := twoRing(t)
	rp := &recordingPush{}
	r := NewReplicator(ring, memberA, rp.push, nil, ReplicatorOptions{})
	r.Enqueue(context.Background(), keyOwnedBy(t, ring, memberB), []byte("payload"))
	if st := r.Stats(); st.Skipped != 1 || st.Enqueued != 0 {
		t.Fatalf("stats = %+v", st)
	}

	single, err := NewRing([]string{memberA}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewReplicator(single, memberA, rp.push, nil, ReplicatorOptions{})
	r2.Enqueue(context.Background(), "plan:x", []byte("payload"))
	if st := r2.Stats(); st.Skipped != 1 {
		t.Fatalf("single-member stats = %+v", st)
	}
	if len(rp.got()) != 0 {
		t.Fatal("skipped payloads were pushed")
	}
}

func TestReplicatorSkipsDeadSuccessor(t *testing.T) {
	ring := twoRing(t)
	fp := &failingProbe{}
	fp.set(memberB, true)
	h := NewHealth(ring, memberA, fp.probe, HealthOptions{DeadAfter: 1})
	h.ProbeNow(context.Background())

	rp := &recordingPush{}
	r := NewReplicator(ring, memberA, rp.push, h, ReplicatorOptions{})
	r.Enqueue(context.Background(), keyOwnedBy(t, ring, memberA), []byte("payload"))
	if st := r.Stats(); st.Skipped != 1 || st.Enqueued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplicatorDropOldestBackpressure(t *testing.T) {
	ring := twoRing(t)
	rp := &recordingPush{}
	// Not started: the queue fills without draining.
	r := NewReplicator(ring, memberA, rp.push, nil, ReplicatorOptions{QueueDepth: 2})
	key := keyOwnedBy(t, ring, memberA)
	r.Enqueue(context.Background(), key, []byte("oldest"))
	r.Enqueue(context.Background(), key, []byte("middle"))
	r.Enqueue(context.Background(), key, []byte("newest"))
	if st := r.Stats(); st.Dropped != 1 || st.Queued != 2 || st.Enqueued != 3 {
		t.Fatalf("stats = %+v", st)
	}
	r.Start()
	defer r.Stop()
	flushReplicator(t, r)
	if st := r.Stats(); st.Sent != 2 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

func TestReplicatorFaultInjection(t *testing.T) {
	faultinject.Enable(1, faultinject.Fault{Site: "cluster.replicate", Kind: faultinject.KindError, P: 1})
	defer faultinject.Disable()

	ring := twoRing(t)
	rp := &recordingPush{}
	r := NewReplicator(ring, memberA, rp.push, nil, ReplicatorOptions{})
	r.Start()
	defer r.Stop()
	r.Enqueue(context.Background(), keyOwnedBy(t, ring, memberA), []byte("payload"))
	flushReplicator(t, r)
	if st := r.Stats(); st.Errors != 1 || st.Sent != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(rp.got()) != 0 {
		t.Fatal("injected fault did not stop the push")
	}
}

func TestPeerSkipsDeadOwner(t *testing.T) {
	ring := twoRing(t)
	fp := &failingProbe{}
	fp.set(memberB, true)
	h := NewHealth(ring, memberA, fp.probe, HealthOptions{DeadAfter: 1})
	h.ProbeNow(context.Background())

	tr := &fakeTransport{body: []byte("never")}
	f := &Fleet{Ring: ring, Self: memberA, Health: h, Fill: tr.fill}
	key := keyOwnedBy(t, ring, memberB)

	if v, ok := f.Fetch(context.Background(), key, "req", decodeString); ok {
		t.Fatalf("Fetch = %v, %v with the owner dead and no successor lookup", v, ok)
	}
	if tr.calls.Load() != 0 {
		t.Fatal("dead owner was still asked")
	}
	if st := f.PeerStats(); st.Dead != 1 || st.Error != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeerSuccessorLookupRecoversReplica(t *testing.T) {
	ring := threeRing(t)
	key := keyOwnedWithSuccessor(t, ring, memberB, memberC)
	fp := &failingProbe{}
	fp.set(memberB, true)
	h := NewHealth(ring, memberA, fp.probe, HealthOptions{DeadAfter: 1})
	h.ProbeNow(context.Background())

	var lookups []string
	lookup := func(ctx context.Context, baseURL string, request any) ([]byte, error) {
		lookups = append(lookups, baseURL)
		return []byte("replica"), nil
	}
	tr := &fakeTransport{body: []byte("never")}
	f := &Fleet{Ring: ring, Self: memberA, Health: h, Fill: tr.fill, Lookup: lookup}

	v, ok := f.Fetch(context.Background(), key, "req", decodeString)
	if !ok || v != "replica" {
		t.Fatalf("Fetch = %v, %v", v, ok)
	}
	if len(lookups) != 1 || lookups[0] != memberC {
		t.Fatalf("lookups = %v, want [%s]", lookups, memberC)
	}
	if tr.calls.Load() != 0 {
		t.Fatal("dead owner was still asked")
	}
	if st := f.PeerStats(); st.SuccHit != 1 || st.Dead != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeerSuccessorMissFallsBackToLocal(t *testing.T) {
	ring := threeRing(t)
	key := keyOwnedWithSuccessor(t, ring, memberB, memberC)
	tr := &fakeTransport{err: errors.New("owner down")}
	lookup := func(context.Context, string, any) ([]byte, error) {
		return nil, ErrNoReplica
	}
	f := &Fleet{Ring: ring, Self: memberA, Fill: tr.fill, Lookup: lookup}

	if v, ok := f.Fetch(context.Background(), key, "req", decodeString); ok {
		t.Fatalf("Fetch = %v, %v; a successor miss must leave the caller to compute", v, ok)
	}
	if st := f.PeerStats(); st.SuccHit != 0 || st.Error != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
