package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/cluster"
)

// stubOwner is the other member of a two-member ring, reduced to its fill
// transport: it counts round trips, reports each one on started, blocks
// until release is closed, then answers body or err.
type stubOwner struct {
	calls atomic.Int64
	// started is buffered past the most round trips a test makes, so a
	// fill never blocks on a test that stopped reading it.
	started chan struct{}
	release chan struct{}
	body    []byte
	err     error
}

func (o *stubOwner) fill(context.Context, string, any) ([]byte, error) {
	o.calls.Add(1)
	o.started <- struct{}{}
	<-o.release
	return o.body, o.err
}

// stubFleet is a one-server fleet member whose ring partner is a
// stubOwner, with a plan request the stub owns.
type stubFleet struct {
	srv     *Server
	ts      *httptest.Server
	owner   *stubOwner
	planned atomic.Int64 // planner runs on the member

	req  PlanRequest // TinyCNN at a GLB size the stub owns
	body string      // req as a /v1/plan body
	key  string      // req's plan key, without the "plan:" prefix
	net  *scratchmem.Network
	opts scratchmem.PlanOptions
	want []byte // the real document for req: what the stub answers
}

// Stub fleet members: the member under test, the stub owner, and the ring
// successor a stub lookup answers for.
const stubSelf, stubOwnerURL, stubSuccessor = "http://self", "http://stub-owner", "http://stub-successor"

// newStubFleet builds a stubFleet over a two-member ring, or, with
// successor set, over a three-member ring where the request's ring
// successor is stubSuccessor.
func newStubFleet(t *testing.T, successor bool) *stubFleet {
	t.Helper()
	members := []string{stubSelf, stubOwnerURL}
	if successor {
		members = append(members, stubSuccessor)
	}
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &stubFleet{}
	for g := 16; g <= 512 && f.key == ""; g++ {
		k := planKeyFor(t, "TinyCNN", g)
		succ, _ := ring.Successor(k)
		if ring.Owner(k) == stubOwnerURL && (!successor || succ == stubSuccessor) {
			f.req = PlanRequest{Model: "TinyCNN", GLBKiloBytes: g}
			f.key = strings.TrimPrefix(k, "plan:")
		}
	}
	if f.key == "" {
		t.Fatal("no probed TinyCNN request owned by the stub")
	}
	f.body = fmt.Sprintf(`{"model": "TinyCNN", "glb_kb": %d}`, f.req.GLBKiloBytes)
	if f.net, err = scratchmem.BuiltinModel("TinyCNN"); err != nil {
		t.Fatal(err)
	}
	f.opts = scratchmem.PlanOptions{Config: scratchmem.DefaultConfig(f.req.GLBKiloBytes)}
	p, err := scratchmem.PlanModel(f.net, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.want, err = scratchmem.PlanDocument(p).MarshalIndent(); err != nil {
		t.Fatal(err)
	}
	f.owner = &stubOwner{started: make(chan struct{}, 16), release: make(chan struct{}), body: f.want}
	f.srv = New(Config{
		Timeout: 5 * time.Second,
		Fleet:   &cluster.Fleet{Ring: ring, Self: stubSelf, Fill: f.owner.fill},
	})
	inner := f.srv.planFn
	f.srv.planFn = func(ctx context.Context, net *scratchmem.Network, o scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		f.planned.Add(1)
		return inner(ctx, net, o)
	}
	f.ts = httptest.NewServer(f.srv.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

// metrics scrapes the member's /metrics.
func (f *stubFleet) metrics(t *testing.T) []byte {
	t.Helper()
	_, body := get(t, f.ts, "/metrics")
	return body
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetFillCoalescesConcurrentMisses: concurrent misses for one
// non-owned key on one member share one flight, so the owner is asked once
// and the body is verified once; every caller gets the same document, and
// the stored fill serves a repeat without a round trip.
func TestFleetFillCoalescesConcurrentMisses(t *testing.T) {
	f := newStubFleet(t, false)
	const n = 8
	type answer struct {
		status int
		cache  string
		body   []byte
		err    error
	}
	answers := make(chan answer, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, body, err := rawPost(f.ts.URL, "/v1/plan", f.body)
			if err != nil {
				answers <- answer{err: err}
				return
			}
			answers <- answer{status: resp.StatusCode, cache: resp.Header.Get("X-SMM-Cache"), body: body}
		}()
	}
	// Release the owner once every request has asked it or joined a
	// flight that did.
	waitUntil(t, "every request reached the owner or a flight", func() bool {
		return f.owner.calls.Load()+f.srv.local.Stats().Coalesced >= n
	})
	close(f.owner.release)
	for i := 0; i < n; i++ {
		a := <-answers
		if a.err != nil || a.status != http.StatusOK {
			t.Fatalf("request %d: status %d, error %v: %s", i, a.status, a.err, a.body)
		}
		if !bytes.Equal(a.body, f.want) {
			t.Errorf("request %d served a different document", i)
		}
		if a.cache != "hit" {
			t.Errorf("request %d: X-SMM-Cache = %q, want hit (filled from the owner)", i, a.cache)
		}
	}
	if got := f.owner.calls.Load(); got != 1 {
		t.Errorf("%d owner round trips for %d concurrent misses, want 1", got, n)
	}
	m := f.metrics(t)
	if got := metric(t, m, `smm_peer_fill_total{outcome="hit"}`); got != 1 {
		t.Errorf(`smm_peer_fill_total{outcome="hit"} = %d, want 1`, got)
	}
	if got := metric(t, m, "smm_cache_coalesced_total"); got != n-1 {
		t.Errorf("smm_cache_coalesced_total = %d, want %d", got, n-1)
	}
	if f.planned.Load() != 0 {
		t.Errorf("the member ran its planner %d times despite the fill", f.planned.Load())
	}

	// The fill is stored in the member's plan cache: a repeat is a local
	// hit with no second round trip.
	if !f.srv.local.Contains("plan:" + f.key) {
		t.Fatal("the filled plan was not stored")
	}
	resp, body := post(t, f.ts, "/v1/plan", f.body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, f.want) || resp.Header.Get("X-SMM-Cache") != "hit" {
		t.Fatalf("repeat: status %d, X-SMM-Cache %q, same document %t",
			resp.StatusCode, resp.Header.Get("X-SMM-Cache"), bytes.Equal(body, f.want))
	}
	if got := f.owner.calls.Load(); got != 1 {
		t.Errorf("the repeat crossed the network: %d round trips", got)
	}
}

// TestFleetInvalidateTombstonesFill: an invalidation that lands while a
// fill is in flight removes it like any racing computation. The request
// still gets its document, the fill is not stored, and the next request
// asks the owner again.
func TestFleetInvalidateTombstonesFill(t *testing.T) {
	f := newStubFleet(t, false)
	type answer struct {
		status int
		body   []byte
		err    error
	}
	first := make(chan answer, 1)
	go func() {
		resp, body, err := rawPost(f.ts.URL, "/v1/plan", f.body)
		if err != nil {
			first <- answer{err: err}
			return
		}
		first <- answer{status: resp.StatusCode, body: body}
	}()
	<-f.owner.started

	req, err := http.NewRequest(http.MethodDelete, f.ts.URL+"/v1/cache/"+f.key+"?fanout=no", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var inv InvalidateResponse
	err = json.NewDecoder(resp.Body).Decode(&inv)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if inv.Removed != 1 {
		t.Errorf("invalidate during the fill removed %d, want 1 (the fill's flight)", inv.Removed)
	}

	close(f.owner.release)
	a := <-first
	if a.err != nil || a.status != http.StatusOK || !bytes.Equal(a.body, f.want) {
		t.Fatalf("the request racing the invalidation: status %d, error %v", a.status, a.err)
	}
	if f.srv.local.Contains("plan:" + f.key) {
		t.Fatal("the invalidated fill was stored anyway")
	}
	post(t, f.ts, "/v1/plan", f.body)
	if got := f.owner.calls.Load(); got != 2 {
		t.Errorf("%d owner round trips, want 2: the request after the invalidation must ask again", got)
	}
}

// TestFleetFailedFillCountsOneMiss: a request whose fill fails computes the
// plan itself and counts one plan-cache miss, not a lookup miss plus a
// flight miss.
func TestFleetFailedFillCountsOneMiss(t *testing.T) {
	f := newStubFleet(t, false)
	f.owner.err = errors.New("owner down")
	close(f.owner.release)

	resp, body := post(t, f.ts, "/v1/plan", f.body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, f.want) {
		t.Fatalf("status %d with the owner failing: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-SMM-Cache") != "miss" || f.planned.Load() != 1 {
		t.Errorf("X-SMM-Cache %q after %d planner runs, want a local miss and 1 run",
			resp.Header.Get("X-SMM-Cache"), f.planned.Load())
	}
	m := f.metrics(t)
	if got := metric(t, m, "smm_cache_misses_total"); got != 1 {
		t.Errorf("smm_cache_misses_total = %d, want 1", got)
	}
	if got := metric(t, m, `smm_peer_fill_total{outcome="error"}`); got != 1 {
		t.Errorf(`smm_peer_fill_total{outcome="error"} = %d, want 1`, got)
	}
}

// TestPeerDeadCallerSkipsLocalFallback: when every caller has gone by the
// time the fill fails, the flight does not run the planner for nobody.
func TestPeerDeadCallerSkipsLocalFallback(t *testing.T) {
	f := newStubFleet(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan struct{})
	f.srv.fleet.Fill = func(ctx context.Context, _ string, _ any) ([]byte, error) {
		defer close(returned)
		cancel()
		// The flight sees its last caller leave asynchronously: wait for
		// its context to end, so the fill fails after the caller is gone.
		<-ctx.Done()
		return nil, errors.New("owner down")
	}
	f.srv.planFn = func(context.Context, *scratchmem.Network, scratchmem.PlanOptions) (*scratchmem.Plan, error) {
		f.planned.Add(1)
		return nil, errors.New("must not plan")
	}
	if _, _, err := f.srv.planned(ctx, f.key, &f.req, nil, f.net, f.opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	<-returned
	// The flight goes on alone after the fill returns, and a planner run
	// that does not happen has no event to wait on: give the flight the
	// moment it would need to reach the planner.
	time.Sleep(20 * time.Millisecond)
	if f.planned.Load() != 0 {
		t.Fatal("planner ran for a cancelled caller")
	}
}

// TestPeerStoredNonOwnedKeyServedWithoutFill: a non-owned plan already in
// the member's cache (an earlier fill, a received replica, a warm restore)
// is served without asking the owner.
func TestPeerStoredNonOwnedKeyServedWithoutFill(t *testing.T) {
	f := newStubFleet(t, false)
	entry, err := decodePeerPlan(f.want, f.net, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	f.srv.local.Put("plan:"+f.key, entry)

	resp, body := post(t, f.ts, "/v1/plan", f.body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, f.want) || resp.Header.Get("X-SMM-Cache") != "hit" {
		t.Fatalf("status %d, X-SMM-Cache %q, same document %t",
			resp.StatusCode, resp.Header.Get("X-SMM-Cache"), bytes.Equal(body, f.want))
	}
	if f.owner.calls.Load() != 0 || f.planned.Load() != 0 {
		t.Fatalf("a stored key crossed the network (%d) or ran the planner (%d)", f.owner.calls.Load(), f.planned.Load())
	}
}

// TestFleetSuccessorReplicaServesRepeats: when the owner fails, the flight
// recovers the plan from the ring successor's replica, stores it, and
// serves a repeat without asking either member again.
func TestFleetSuccessorReplicaServesRepeats(t *testing.T) {
	f := newStubFleet(t, true)
	f.owner.err = errors.New("owner down")
	close(f.owner.release)
	var lookups atomic.Int64
	f.srv.fleet.Lookup = func(_ context.Context, baseURL string, _ any) ([]byte, error) {
		lookups.Add(1)
		if baseURL != stubSuccessor {
			return nil, fmt.Errorf("lookup asked %s, not the successor", baseURL)
		}
		return f.want, nil
	}
	for i := 0; i < 2; i++ {
		resp, body := post(t, f.ts, "/v1/plan", f.body)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, f.want) || resp.Header.Get("X-SMM-Cache") != "hit" {
			t.Fatalf("request %d: status %d, X-SMM-Cache %q, same document %t",
				i, resp.StatusCode, resp.Header.Get("X-SMM-Cache"), bytes.Equal(body, f.want))
		}
	}
	if f.owner.calls.Load() != 1 || lookups.Load() != 1 || f.planned.Load() != 0 {
		t.Fatalf("owner asked %d times, successor %d, planner ran %d; want 1, 1, 0",
			f.owner.calls.Load(), lookups.Load(), f.planned.Load())
	}
	if ps := f.srv.fleet.PeerStats(); ps.SuccHit != 1 || ps.Error != 1 {
		t.Fatalf("peer stats = %+v, want one owner error and one successor hit", ps)
	}
}

// TestFleetHungOwnerBoundedByLeaderDeadline: the fleet ask inside a flight
// ends at its leader's deadline even while later waiters remain, so a hung
// owner counts a fill error against its breaker, and a waiter that
// outlasts the ask gets a local plan instead of a timeout.
func TestFleetHungOwnerBoundedByLeaderDeadline(t *testing.T) {
	f := newStubFleet(t, false)
	const timeout = 300 * time.Millisecond
	f.srv.cfg.Timeout = timeout
	started := make(chan time.Time, 1)
	type fillEnd struct {
		deadline time.Time
		bounded  bool
		at       time.Time
	}
	ended := make(chan fillEnd, 1)
	f.srv.fleet.Fill = func(ctx context.Context, _ string, _ any) ([]byte, error) {
		f.owner.calls.Add(1)
		started <- time.Now()
		<-ctx.Done() // a hung owner: it never answers
		dl, ok := ctx.Deadline()
		ended <- fillEnd{deadline: dl, bounded: ok, at: time.Now()}
		return nil, ctx.Err()
	}
	type answer struct {
		status int
		body   []byte
		err    error
	}
	send := func(out chan<- answer) {
		resp, body, err := rawPost(f.ts.URL, "/v1/plan", f.body)
		if err != nil {
			out <- answer{err: err}
			return
		}
		out <- answer{status: resp.StatusCode, body: body}
	}
	leader, follower := make(chan answer, 1), make(chan answer, 1)
	go send(leader)
	<-started
	// Join the flight well after the leader, so the follower's deadline
	// leaves room for a local plan once the leader's has passed.
	time.Sleep(timeout / 3)
	joined := time.Now()
	go send(follower)
	waitUntil(t, "the second request joined the flight", func() bool {
		return f.srv.local.Stats().Coalesced == 1
	})

	end := <-ended
	if !end.bounded || !end.deadline.Before(joined.Add(timeout)) {
		t.Errorf("the fill ran under deadline %v (set %t), want the leader's, before %v",
			end.deadline, end.bounded, joined.Add(timeout))
	}
	// The leader's deadline ends the ask and the leader's wait at once: it
	// times out, or, if the flight's local plan wins that race, is served.
	if a := <-leader; a.err != nil || (a.status != http.StatusGatewayTimeout && !bytes.Equal(a.body, f.want)) {
		t.Errorf("leader: status %d, error %v, want 504 or the document", a.status, a.err)
	}
	a := <-follower
	if a.err != nil || a.status != http.StatusOK || !bytes.Equal(a.body, f.want) {
		t.Fatalf("follower: status %d, error %v, want the locally planned document: %s", a.status, a.err, a.body)
	}
	if f.planned.Load() != 1 || f.owner.calls.Load() != 1 {
		t.Errorf("planner ran %d times after %d owner round trips, want 1 and 1", f.planned.Load(), f.owner.calls.Load())
	}
	if ps := f.srv.fleet.PeerStats(); ps.Error != 1 || ps.Hit != 0 {
		t.Errorf("peer stats = %+v, want one fill error", ps)
	}
}

// TestPeerFillNeverForwards: a member asked to fill a key it does not own
// plans it itself rather than asking the key's owner, so members whose
// rings disagree cannot forward fills to each other.
func TestPeerFillNeverForwards(t *testing.T) {
	f := newStubFleet(t, false)
	close(f.owner.release)
	resp, body := post(t, f.ts, "/v1/peer/fill", f.body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, f.want) {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if f.owner.calls.Load() != 0 || f.planned.Load() != 1 {
		t.Fatalf("the fill asked the owner %d times and planned %d times, want 0 and 1",
			f.owner.calls.Load(), f.planned.Load())
	}
}
