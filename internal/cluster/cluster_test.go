package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scratchmem/internal/faultinject"
)

// fakeTransport records fills and answers from a canned table.
type fakeTransport struct {
	calls atomic.Int64
	body  []byte
	err   error
}

func (f *fakeTransport) fill(ctx context.Context, baseURL string, request any) ([]byte, error) {
	f.calls.Add(1)
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

// fleetUnderTest is member A of a two-member ring, filling through tr.
func fleetUnderTest(t *testing.T, tr *fakeTransport) *Fleet {
	t.Helper()
	return &Fleet{Ring: twoRing(t), Self: memberA, Fill: tr.fill}
}

func TestPeerOwnedKeyComputesLocally(t *testing.T) {
	tr := &fakeTransport{}
	f := fleetUnderTest(t, tr)
	key := keyOwnedBy(t, f.Ring, memberA)

	if v, ok := f.Fetch(context.Background(), key, "req", decodeString); ok || v != nil {
		t.Fatalf("Fetch of an owned key = %v, %v; want nothing, so the caller computes", v, ok)
	}
	if tr.calls.Load() != 0 {
		t.Fatalf("transport calls = %d, want 0", tr.calls.Load())
	}
	if st := f.PeerStats(); st.OwnerSelf != 1 || st.Hit != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeerFillHit(t *testing.T) {
	tr := &fakeTransport{body: []byte("from-owner")}
	f := fleetUnderTest(t, tr)
	key := keyOwnedBy(t, f.Ring, memberB)

	v, ok := f.Fetch(context.Background(), key, "req", decodeString)
	if !ok || v != "from-owner" {
		t.Fatalf("Fetch = %v, %v", v, ok)
	}
	if tr.calls.Load() != 1 {
		t.Fatalf("transport calls = %d, want 1", tr.calls.Load())
	}
	if st := f.PeerStats(); st.Hit != 1 || st.OwnerSelf != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeerFillErrorFallsBackToLocal(t *testing.T) {
	tr := &fakeTransport{err: errors.New("owner down")}
	f := fleetUnderTest(t, tr)
	key := keyOwnedBy(t, f.Ring, memberB)

	if v, ok := f.Fetch(context.Background(), key, "req", decodeString); ok {
		t.Fatalf("Fetch = %v, %v; a failed fill must leave the caller to compute", v, ok)
	}
	if st := f.PeerStats(); st.Error != 1 || st.Hit != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeerBadDecodeFallsBackWithoutBreaking(t *testing.T) {
	tr := &fakeTransport{body: []byte("garbage")}
	f := fleetUnderTest(t, tr)
	f.BreakerThreshold = 1
	key := keyOwnedBy(t, f.Ring, memberB)

	skew := func([]byte) (any, error) { return nil, errors.New("version skew") }
	if v, ok := f.Fetch(context.Background(), key, "req", skew); ok {
		t.Fatalf("Fetch = %v, %v; a refused body must leave the caller to compute", v, ok)
	}
	if st := f.PeerStats(); st.Bad != 1 || st.Error != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// A bad decode must not open the member's breaker: the next fill still
	// goes out on the wire.
	if _, ok := f.Fetch(context.Background(), key, "req", decodeString); !ok {
		t.Fatal("the fill after a bad decode did not go out")
	}
	if st := f.PeerStats(); st.Open != 0 || tr.calls.Load() != 2 {
		t.Fatalf("breaker opened after decode failure: %+v, %d calls", st, tr.calls.Load())
	}
}

func TestPeerBreakerOpensAfterFailures(t *testing.T) {
	tr := &fakeTransport{err: errors.New("owner down")}
	f := fleetUnderTest(t, tr)
	f.BreakerThreshold, f.BreakerCooldown = 1, time.Hour

	k1 := keyOwnedBy(t, f.Ring, memberB)
	f.Fetch(context.Background(), k1, "req", decodeString)
	// The breaker opened on the first failure; the next non-owned key
	// skips the wire entirely.
	k2 := k1 + "-b"
	for f.Ring.Owner(k2) != memberB {
		k2 += "b"
	}
	if _, ok := f.Fetch(context.Background(), k2, "req", decodeString); ok {
		t.Fatal("Fetch through an open breaker answered")
	}
	if got := tr.calls.Load(); got != 1 {
		t.Fatalf("transport calls = %d, want 1 (breaker should fast-fail)", got)
	}
	if st := f.PeerStats(); st.Error != 1 || st.Open != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPeerNilSpecStaysLocal(t *testing.T) {
	tr := &fakeTransport{body: []byte("never")}
	f := fleetUnderTest(t, tr)
	key := keyOwnedBy(t, f.Ring, memberB)

	// A nil request is a fill being served for a peer: never forwarded.
	if v, ok := f.Fetch(context.Background(), key, nil, decodeString); ok {
		t.Fatalf("Fetch(nil request) = %v, %v", v, ok)
	}
	if tr.calls.Load() != 0 {
		t.Fatal("a nil request crossed the network")
	}
	if st := f.PeerStats(); st != (PeerStats{}) {
		t.Fatalf("stats = %+v, want none counted", st)
	}
	// A nil fleet (standalone) is a valid handle that fetches nothing.
	var none *Fleet
	if _, ok := none.Fetch(context.Background(), key, "req", decodeString); ok || none.PeerStats() != (PeerStats{}) {
		t.Fatal("a nil fleet fetched or counted")
	}
}

func TestPeerFaultInjection(t *testing.T) {
	faultinject.Enable(1, faultinject.Fault{Site: "cluster.peer", Kind: faultinject.KindError, P: 1})
	defer faultinject.Disable()

	tr := &fakeTransport{body: []byte("never")}
	f := fleetUnderTest(t, tr)
	key := keyOwnedBy(t, f.Ring, memberB)

	if v, ok := f.Fetch(context.Background(), key, "req", decodeString); ok {
		t.Fatalf("Fetch = %v, %v under an injected fault", v, ok)
	}
	if tr.calls.Load() != 0 {
		t.Fatal("injected fault did not stop the transport call")
	}
	if st := f.PeerStats(); st.Error != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
