package obs

import (
	"context"
	"strings"
	"testing"
)

func TestParseTraceContext(t *testing.T) {
	valid := "0123456789abcdef-fedcba9876543210"
	tc := ParseTraceContext(valid)
	if !tc.Valid() || tc.TraceID != "0123456789abcdef" || tc.ParentID != "fedcba9876543210" {
		t.Fatalf("ParseTraceContext(%q) = %+v", valid, tc)
	}
	if tc.String() != valid {
		t.Errorf("round trip: String() = %q, want %q", tc.String(), valid)
	}

	// Malformed headers degrade to the zero value — the propagation
	// contract is best-effort, never an error.
	for _, bad := range []string{
		"",
		"0123456789abcdef",                    // no parent half
		"0123456789abcdef-fedcba987654321",    // short parent
		"0123456789abcdef_fedcba9876543210",   // wrong separator
		"0123456789ABCDEF-fedcba9876543210",   // uppercase hex
		"0123456789abcdeg-fedcba9876543210",   // non-hex digit
		"0123456789abcdef-fedcba9876543210-x", // trailing junk
	} {
		if tc := ParseTraceContext(bad); tc.Valid() || tc != (TraceContext{}) {
			t.Errorf("ParseTraceContext(%q) = %+v, want zero value", bad, tc)
		}
	}
	if (TraceContext{}).String() != "" {
		t.Error("zero TraceContext must render as the empty string")
	}
}

func TestSpanContextNilSafe(t *testing.T) {
	var s *Span
	if tc := s.Context(); tc.Valid() {
		t.Errorf("nil span Context() = %+v, want invalid", tc)
	}
}

// TestStartSpanAdoptsRemoteParent: with no local parent, a span joins the
// remote caller's trace and parents under the remote span.
func TestStartSpanAdoptsRemoteParent(t *testing.T) {
	tr := NewTracer(8)
	remote := TraceContext{TraceID: "0123456789abcdef", ParentID: "fedcba9876543210"}
	ctx := WithRemoteParent(WithTracer(context.Background(), tr), remote)
	_, s := StartSpan(ctx, "request")
	if s.TraceID != remote.TraceID || s.ParentID != remote.ParentID {
		t.Fatalf("span = trace %s parent %s, want to adopt %+v", s.TraceID, s.ParentID, remote)
	}
	s.End()
}

// TestLocalParentBeatsRemote: once a local span is active, children nest
// under it — the remote parent only seeds the root.
func TestLocalParentBeatsRemote(t *testing.T) {
	tr := NewTracer(8)
	remote := TraceContext{TraceID: "0123456789abcdef", ParentID: "fedcba9876543210"}
	ctx := WithRemoteParent(WithTracer(context.Background(), tr), remote)
	ctx, root := StartSpan(ctx, "request")
	_, child := StartSpan(ctx, "peer_fill")
	if child.TraceID != remote.TraceID {
		t.Errorf("child trace = %s, want the adopted %s", child.TraceID, remote.TraceID)
	}
	if child.ParentID != root.SpanID {
		t.Errorf("child parent = %s, want the local root %s, not the remote %s",
			child.ParentID, root.SpanID, remote.ParentID)
	}
	child.End()
	root.End()
}

// TestWithRemoteParentIgnoresInvalid: an invalid context is a no-op, so a
// dropped or mangled header degrades to a fresh per-process trace.
func TestWithRemoteParentIgnoresInvalid(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithRemoteParent(WithTracer(context.Background(), tr), TraceContext{TraceID: "xyz"})
	if got := RemoteParentFrom(ctx); got.Valid() {
		t.Fatalf("invalid remote parent stored: %+v", got)
	}
	_, s := StartSpan(ctx, "request")
	if s.ParentID != "" {
		t.Errorf("span parented under an invalid remote context: %+v", s)
	}
	s.End()
}

// TestTraceContextFromPrefersActiveSpan: an active local span is the
// context to propagate; the inherited remote parent only applies when no
// span has started yet (e.g. work a request queued for later).
func TestTraceContextFromPrefersActiveSpan(t *testing.T) {
	tr := NewTracer(8)
	remote := TraceContext{TraceID: "0123456789abcdef", ParentID: "fedcba9876543210"}
	ctx := WithRemoteParent(WithTracer(context.Background(), tr), remote)
	if got := TraceContextFrom(ctx); got != remote {
		t.Fatalf("with no active span TraceContextFrom = %+v, want the remote %+v", got, remote)
	}
	ctx, s := StartSpan(ctx, "request")
	got := TraceContextFrom(ctx)
	if got.TraceID != remote.TraceID || got.ParentID != s.SpanID {
		t.Fatalf("with an active span TraceContextFrom = %+v, want trace %s parent %s",
			got, remote.TraceID, s.SpanID)
	}
	if !strings.Contains(got.String(), "-") {
		t.Errorf("String() = %q is not header-shaped", got.String())
	}
	s.End()
}

// TestSpanIDsDistinctAcrossTracers: two tracers model two fleet members;
// their span IDs must not collide, or merged cross-node traces would wire
// children to the wrong parents.
func TestSpanIDsDistinctAcrossTracers(t *testing.T) {
	a, b := NewTracer(0), NewTracer(0)
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		for _, tr := range []*Tracer{a, b} {
			id := tr.newSpanID()
			if seen[id] {
				t.Fatalf("span ID %s minted twice across tracers", id)
			}
			seen[id] = true
		}
	}
}
