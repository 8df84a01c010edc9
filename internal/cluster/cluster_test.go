package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scratchmem/internal/faultinject"
	"scratchmem/internal/plancache"
)

// fakeTransport records fills and answers from a canned table.
type fakeTransport struct {
	calls atomic.Int64
	body  []byte
	err   error
	// hook runs inside Fill before answering (for cancellation tests).
	hook func(ctx context.Context)
}

func (f *fakeTransport) Fill(ctx context.Context, baseURL string, request any) ([]byte, error) {
	f.calls.Add(1)
	if f.hook != nil {
		f.hook(ctx)
	}
	return f.body, f.err
}

const (
	memberA = "http://a:1"
	memberB = "http://b:1"
)

// twoRing is a two-member ring shared by the peer tests.
func twoRing(t *testing.T) *Ring {
	t.Helper()
	r, err := NewRing([]string{memberA, memberB}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// keyOwnedBy probes keys until one hashes onto the wanted member.
func keyOwnedBy(t *testing.T, r *Ring, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("plan:key-%d", i)
		if r.Owner(k) == owner {
			return k
		}
	}
	t.Fatalf("no probed key owned by %s", owner)
	return ""
}

func decodeString(body []byte) (any, error) { return string(body), nil }

func newPeerUnderTest(t *testing.T, tr Transport, opts PeerOptions) (*Peer, *plancache.Cache) {
	t.Helper()
	c := plancache.New(16)
	return NewPeer(c, twoRing(t), memberA, tr, opts), c
}

func TestPeerOwnedKeyComputesLocally(t *testing.T) {
	tr := &fakeTransport{}
	p, _ := newPeerUnderTest(t, tr, PeerOptions{})
	key := keyOwnedBy(t, p.Ring(), memberA)

	var ran atomic.Int64
	spec := &FillSpec{Request: "req", Decode: decodeString}
	v, shared, err := p.Do(context.Background(), key, spec, func(context.Context) (any, error) {
		ran.Add(1)
		return "local", nil
	})
	if err != nil || shared || v != "local" {
		t.Fatalf("Do = %v, %v, %v", v, shared, err)
	}
	if ran.Load() != 1 || tr.calls.Load() != 0 {
		t.Fatalf("ran=%d transport calls=%d, want 1 and 0", ran.Load(), tr.calls.Load())
	}
	if st := p.PeerStats(); st.OwnerSelf != 1 || st.Hit != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The owned key is stored: a second Do is a shared cache hit.
	if _, shared, _ := p.Do(context.Background(), key, spec, nil); !shared {
		t.Fatal("second Do for owned key was not a cache hit")
	}
}

func TestPeerFillHit(t *testing.T) {
	tr := &fakeTransport{body: []byte("from-owner")}
	p, c := newPeerUnderTest(t, tr, PeerOptions{})
	key := keyOwnedBy(t, p.Ring(), memberB)

	spec := &FillSpec{Request: "req", Decode: decodeString}
	v, shared, err := p.Do(context.Background(), key, spec, func(context.Context) (any, error) {
		t.Fatal("local compute ran despite a successful peer fill")
		return nil, nil
	})
	if err != nil || !shared || v != "from-owner" {
		t.Fatalf("Do = %v, %v, %v", v, shared, err)
	}
	if tr.calls.Load() != 1 {
		t.Fatalf("transport calls = %d, want 1", tr.calls.Load())
	}
	if st := p.PeerStats(); st.Hit != 1 || st.OwnerSelf != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The fill is stored in the member's plan cache, so repeats are local
	// hits with no second round trip.
	if !c.Contains(key) {
		t.Fatal("peer fill was not stored in the plan cache")
	}
	for i := 0; i < 2; i++ {
		v, shared, err := p.Do(context.Background(), key, spec, nil)
		if err != nil || !shared || v != "from-owner" {
			t.Fatalf("repeat #%d = %v, %v, %v", i, v, shared, err)
		}
	}
	if tr.calls.Load() != 1 {
		t.Fatalf("transport calls = %d after two repeats, want 1", tr.calls.Load())
	}
	if st := p.PeerStats(); st.Hit != 1 {
		t.Fatalf("stats after repeats = %+v, want one fill", st)
	}
}

func TestPeerFillErrorFallsBackToLocal(t *testing.T) {
	tr := &fakeTransport{err: errors.New("owner down")}
	p, _ := newPeerUnderTest(t, tr, PeerOptions{})
	key := keyOwnedBy(t, p.Ring(), memberB)

	spec := &FillSpec{Request: "req", Decode: decodeString}
	v, shared, err := p.Do(context.Background(), key, spec, func(context.Context) (any, error) {
		return "degraded-local", nil
	})
	if err != nil || shared || v != "degraded-local" {
		t.Fatalf("Do = %v, %v, %v", v, shared, err)
	}
	if st := p.PeerStats(); st.Error != 1 || st.Hit != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeerBadDecodeFallsBackWithoutBreaking(t *testing.T) {
	tr := &fakeTransport{body: []byte("garbage")}
	p, _ := newPeerUnderTest(t, tr, PeerOptions{BreakerThreshold: 1})
	key := keyOwnedBy(t, p.Ring(), memberB)

	spec := &FillSpec{
		Request: "req",
		Decode:  func([]byte) (any, error) { return nil, errors.New("version skew") },
	}
	v, _, err := p.Do(context.Background(), key, spec, func(context.Context) (any, error) {
		return "local", nil
	})
	if err != nil || v != "local" {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if st := p.PeerStats(); st.Bad != 1 || st.Error != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A bad decode must not open the member's breaker: the next fill still
	// goes out on the wire.
	spec.Decode = decodeString
	if _, _, err := p.Do(context.Background(), keyOwnedBy(t, p.Ring(), memberB), spec, nil); err != nil {
		t.Fatal(err)
	}
	if st := p.PeerStats(); st.Open != 0 {
		t.Fatalf("breaker opened after decode failure: %+v", st)
	}
}

func TestPeerBreakerOpensAfterFailures(t *testing.T) {
	tr := &fakeTransport{err: errors.New("owner down")}
	p, _ := newPeerUnderTest(t, tr, PeerOptions{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	spec := &FillSpec{Request: "req", Decode: decodeString}
	local := func(context.Context) (any, error) { return "local", nil }

	k1 := keyOwnedBy(t, p.Ring(), memberB)
	if _, _, err := p.Do(context.Background(), k1, spec, local); err != nil {
		t.Fatal(err)
	}
	// The breaker opened on the first failure; the next non-owned key
	// skips the wire entirely.
	k2 := keyOwnedBy(t, p.Ring(), memberB)
	if k2 == k1 {
		k2 = k1 + "-b"
		for p.Ring().Owner(k2) != memberB {
			k2 += "b"
		}
	}
	if _, _, err := p.Do(context.Background(), k2, spec, local); err != nil {
		t.Fatal(err)
	}
	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("transport calls = %d, want 1 (breaker should fast-fail)", got)
	}
	if st := p.PeerStats(); st.Error != 1 || st.Open != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeerNilSpecStaysLocal(t *testing.T) {
	tr := &fakeTransport{body: []byte("never")}
	p, _ := newPeerUnderTest(t, tr, PeerOptions{})
	key := keyOwnedBy(t, p.Ring(), memberB)

	v, shared, err := p.Do(context.Background(), key, nil, func(context.Context) (any, error) {
		return "sim-result", nil
	})
	if err != nil || shared || v != "sim-result" {
		t.Fatalf("Do = %v, %v, %v", v, shared, err)
	}
	if tr.calls.Load() != 0 {
		t.Fatal("local-only key crossed the network")
	}
}

func TestPeerStoredNonOwnedKeyServedWithoutFill(t *testing.T) {
	tr := &fakeTransport{body: []byte("never")}
	p, c := newPeerUnderTest(t, tr, PeerOptions{})
	key := keyOwnedBy(t, p.Ring(), memberB)
	c.Put(key, "warm-restored")

	spec := &FillSpec{Request: "req", Decode: decodeString}
	v, shared, err := p.Do(context.Background(), key, spec, nil)
	if err != nil || !shared || v != "warm-restored" {
		t.Fatalf("Do = %v, %v, %v", v, shared, err)
	}
	if tr.calls.Load() != 0 {
		t.Fatal("warm-restored key crossed the network")
	}
}

func TestPeerDeadCallerSkipsLocalFallback(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := &fakeTransport{err: errors.New("owner down"), hook: func(context.Context) { cancel() }}
	p, _ := newPeerUnderTest(t, tr, PeerOptions{})
	key := keyOwnedBy(t, p.Ring(), memberB)

	spec := &FillSpec{Request: "req", Decode: decodeString}
	_, _, err := p.Do(ctx, key, spec, func(context.Context) (any, error) {
		t.Fatal("planner ran for a cancelled caller")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPeerFaultInjection(t *testing.T) {
	faultinject.Enable(1, faultinject.Fault{Site: "cluster.peer", Kind: faultinject.KindError, P: 1})
	defer faultinject.Disable()

	tr := &fakeTransport{body: []byte("never")}
	p, _ := newPeerUnderTest(t, tr, PeerOptions{})
	key := keyOwnedBy(t, p.Ring(), memberB)

	spec := &FillSpec{Request: "req", Decode: decodeString}
	v, _, err := p.Do(context.Background(), key, spec, func(context.Context) (any, error) {
		return "local", nil
	})
	if err != nil || v != "local" {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if tr.calls.Load() != 0 {
		t.Fatal("injected fault did not stop the transport call")
	}
	if st := p.PeerStats(); st.Error != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
