package obs

import "context"

// TraceparentHeader is the HTTP header that carries trace context across
// fleet members: "<trace-id>-<parent-span-id>", both 16 lowercase hex
// digits. Every cross-node call made for a request (invalidate fan-out,
// snapshot pull, overview fetch) stamps it and the receiving server adopts
// it, so one request produces one trace no matter how many members it
// crosses. The contract is strictly
// best-effort: a missing or malformed header degrades to a fresh
// per-process trace, never to an error.
const TraceparentHeader = "X-SMM-Traceparent"

// TraceContext is the wire-portable half of a span: enough to parent a
// remote child under it. The zero value is "no context" (Valid reports
// false) and is safe to pass around.
type TraceContext struct {
	TraceID  string
	ParentID string
}

// Valid reports whether both IDs are well-formed (16 lowercase hex digits
// each), which is the only shape this package ever mints or accepts.
func (tc TraceContext) Valid() bool {
	return isHex16(tc.TraceID) && isHex16(tc.ParentID)
}

// String renders the header value, or "" for an invalid context (so call
// sites can set the header unconditionally and send nothing when there is
// nothing to propagate).
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	return tc.TraceID + "-" + tc.ParentID
}

// ParseTraceContext parses a TraceparentHeader value. Anything malformed —
// empty, wrong length, bad digits — returns the zero (invalid) context:
// propagation is best-effort, so parsing never fails loudly.
func ParseTraceContext(s string) TraceContext {
	if len(s) != 33 || s[16] != '-' {
		return TraceContext{}
	}
	tc := TraceContext{TraceID: s[:16], ParentID: s[17:]}
	if !tc.Valid() {
		return TraceContext{}
	}
	return tc
}

func isHex16(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < 16; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Context returns the span's propagable identity — what a cross-node call
// stamps into TraceparentHeader so the remote side can parent under this
// span. A nil span returns the zero (invalid) context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.TraceID, ParentID: s.SpanID}
}

// WithRemoteParent records an extracted remote trace context on ctx: the
// next StartSpan without a local parent adopts its trace ID and parents
// under its span ID, stitching the local subtree into the originating
// request's trace. An invalid tc returns ctx unchanged.
func WithRemoteParent(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, tc)
}

// RemoteParentFrom returns the remote trace context recorded by
// WithRemoteParent, or the zero (invalid) context.
func RemoteParentFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(remoteKey).(TraceContext)
	return tc
}

// TraceContextFrom returns the trace context an outbound call should
// propagate: the active span's identity when one exists, else any carried
// remote parent (a background worker re-attaching a context captured at
// enqueue time), else the zero (invalid) context.
func TraceContextFrom(ctx context.Context) TraceContext {
	if s := SpanFrom(ctx); s != nil {
		return s.Context()
	}
	return RemoteParentFrom(ctx)
}
