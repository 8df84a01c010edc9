package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotHonorsRetryAfter: a 503 with Retry-After from the snapshot
// endpoint (shed queue, injected cluster.snapshot fault) must floor the
// backoff at the server's hint, not the client's jittered base.
func TestSnapshotHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3")
			http.Error(w, `{"error": "shed"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-SMM-Snapshot-Entries", "1")
		io.WriteString(w, `{"key": "k"}`+"\n")
	}))
	defer ts.Close()

	var slept []time.Duration
	c := testClient(ts, &slept)
	body, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"k"`) {
		t.Fatalf("snapshot body = %q", body)
	}
	if len(slept) != 1 {
		t.Fatalf("%d backoff sleeps, want 1", len(slept))
	}
	if slept[0] < 3*time.Second {
		t.Fatalf("backed off %v, want >= the server's 3s Retry-After", slept[0])
	}
}

// TestSnapshotRetriesTruncatedStream: a body shorter than the advertised
// record count is a failed attempt — retried like a wire error, and the
// retry fetches the full stream.
func TestSnapshotRetriesTruncatedStream(t *testing.T) {
	var calls atomic.Int64
	full := `{"key": "a"}` + "\n" + `{"key": "b"}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-SMM-Snapshot-Entries", "2")
		if calls.Add(1) == 1 {
			io.WriteString(w, `{"key": "a"}`+"\n") // dropped mid-stream
			return
		}
		io.WriteString(w, full)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := testClient(ts, &slept)
	body, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != full {
		t.Fatalf("snapshot body = %q, want the complete stream", body)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d attempts, want 2", calls.Load())
	}
}

// TestSnapshotPartialStreamErrorSurface: when every attempt truncates, the
// caller gets the typed *PartialStreamError with counts, unwrapping to the
// historical io.ErrUnexpectedEOF sentinel.
func TestSnapshotPartialStreamErrorSurface(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-SMM-Snapshot-Entries", "3")
		io.WriteString(w, `{"key": "a"}`+"\n")
	}))
	defer ts.Close()

	var slept []time.Duration
	c := testClient(ts, &slept)
	c.MaxRetries = 1
	_, err := c.Snapshot(context.Background())
	var pse *PartialStreamError
	if !errors.As(err, &pse) {
		t.Fatalf("err = %v, want *PartialStreamError", err)
	}
	if pse.Got != 1 || pse.Want != 3 {
		t.Fatalf("partial stream counts = %d/%d, want 1/3", pse.Got, pse.Want)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal("PartialStreamError does not unwrap to io.ErrUnexpectedEOF")
	}
	if !Retryable(pse) {
		t.Fatal("a truncated stream must be retryable")
	}
	if len(slept) != 1 {
		t.Fatalf("%d backoff sleeps before giving up, want 1 (MaxRetries=1)", len(slept))
	}
}

// TestSnapshotWithoutEntriesHeaderIsTrusted: servers predating the header
// (or proxies that strip it) make no completeness claim — nothing to verify.
func TestSnapshotWithoutEntriesHeaderIsTrusted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"key": "a"}`+"\n")
	}))
	defer ts.Close()
	var slept []time.Duration
	if _, err := testClient(ts, &slept).Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 0 {
		t.Fatal("headerless snapshot was retried")
	}
}

// TestProbeTransportDoesNotRetry: the probe adapter must report the first
// failure — the health tracker owns retry policy (consecutive failures over
// probe rounds), and an inner retry loop would mask the latency it measures.
func TestProbeTransportDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	var slept []time.Duration
	probe := testClient(ts, &slept).ProbeTransport()
	if err := probe(context.Background(), ts.URL); err == nil {
		t.Fatal("probe of a 503 member reported healthy")
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Fatalf("probe made %d attempts with %d sleeps, want exactly one attempt", calls.Load(), len(slept))
	}
}

// TestInvalidateTransportMarksFanout: fan-out deliveries must carry
// fanout=no so receiving members apply locally instead of forwarding — the
// loop-prevention contract.
func TestInvalidateTransportMarksFanout(t *testing.T) {
	var gotMethod, gotURL atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotMethod.Store(r.Method)
		gotURL.Store(r.URL.String())
		io.WriteString(w, `{}`)
	}))
	defer ts.Close()

	var slept []time.Duration
	inv := testClient(ts, &slept).InvalidateTransport()
	if err := inv(context.Background(), ts.URL, "abc/123"); err != nil {
		t.Fatal(err)
	}
	if gotMethod.Load() != http.MethodDelete || gotURL.Load() != "/v1/cache/abc%2F123?fanout=no" {
		t.Fatalf("key delivery = %v %v", gotMethod.Load(), gotURL.Load())
	}
	if err := inv(context.Background(), ts.URL, ""); err != nil {
		t.Fatal(err)
	}
	if gotMethod.Load() != http.MethodPost || gotURL.Load() != "/v1/cache/purge?fanout=no" {
		t.Fatalf("purge delivery = %v %v", gotMethod.Load(), gotURL.Load())
	}
}
