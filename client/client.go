// Package client is a resilient Go client for the smm-serve planning
// service. Transient failures — load shedding (503 + Retry-After), open
// circuit breakers, recovered panics (500), network errors — are retried
// with capped exponential backoff and full jitter, honouring the server's
// Retry-After hint as a floor and the context deadline as the overall
// retry budget. Terminal failures map back onto the scratchmem error
// taxonomy: a 400 response satisfies errors.Is(err, scratchmem.ErrBadModel)
// and a 422 satisfies errors.Is(err, scratchmem.ErrInfeasible), so callers
// classify remote and local planning failures with the same code.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	scratchmem "scratchmem"
	"scratchmem/internal/obs"
	"scratchmem/internal/server"
)

// Defaults for the zero-valued Client fields.
const (
	// DefaultMaxRetries is the number of retries after the first attempt.
	DefaultMaxRetries = 4
	// DefaultBaseDelay seeds the exponential backoff (doubled per attempt).
	DefaultBaseDelay = 100 * time.Millisecond
	// DefaultMaxDelay caps a single backoff sleep.
	DefaultMaxDelay = 5 * time.Second
)

// Client talks to one smm-serve base URL. The zero value with a BaseURL is
// usable; other fields default sensibly. Clients are safe for concurrent
// use.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries is the number of retries after the first attempt
	// (DefaultMaxRetries when 0, no retries when negative).
	MaxRetries int
	// BaseDelay and MaxDelay shape the backoff (defaults above).
	BaseDelay time.Duration
	MaxDelay  time.Duration

	// mu guards rng; both are test seams as much as implementation detail.
	mu  sync.Mutex
	rng *rand.Rand
	// sleep replaces the backoff sleep in tests; nil means a real timer
	// that aborts when ctx does.
	sleep func(ctx context.Context, d time.Duration) error
}

// New returns a Client for the given base URL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// APIError is a non-200 response. It unwraps to the scratchmem taxonomy
// where a mapping exists, so errors.Is works across the wire.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error text.
	Message string
	// RetryAfter is the parsed Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// Unwrap maps the wire status back onto the local error taxonomy.
func (e *APIError) Unwrap() error {
	switch e.Status {
	case http.StatusBadRequest:
		return scratchmem.ErrBadModel
	case http.StatusUnprocessableEntity:
		return scratchmem.ErrInfeasible
	}
	return nil
}

// PartialStreamError reports a snapshot stream that ended before the
// server-advertised record count arrived: the connection dropped mid-body
// but after the 200 status, so no APIError exists to classify. It unwraps
// to io.ErrUnexpectedEOF (the historical sentinel) and is retryable.
type PartialStreamError struct {
	// Got and Want are received vs advertised record counts.
	Got, Want int
}

func (e *PartialStreamError) Error() string {
	return fmt.Sprintf("client: partial snapshot stream: got %d of %d records", e.Got, e.Want)
}

func (e *PartialStreamError) Unwrap() error { return io.ErrUnexpectedEOF }

// Retryable reports whether err is worth another attempt: a transient
// server status (429, 500, 502, 503, 504 — shed queues, open breakers,
// recovered panics, proxies mid-restart) or a transport error. Client
// mistakes (4xx) and context expiry are terminal.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if !errors.As(err, &ae) {
		// Not an HTTP response at all: the connection failed somewhere en
		// route, which is the classic transient failure.
		return true
	}
	switch ae.Status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Plan asks the server for an execution plan and decodes the document.
func (c *Client) Plan(ctx context.Context, req server.PlanRequest) (*scratchmem.PlanDoc, error) {
	body, err := c.PlanRaw(ctx, req)
	if err != nil {
		return nil, err
	}
	var doc scratchmem.PlanDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("client: invalid plan document: %w", err)
	}
	return &doc, nil
}

// PlanRaw is Plan returning the server's response verbatim: the body is the
// canonical PlanDoc rendering, byte-identical to scratchmem.PlanDoc.Encode,
// so tools can pipe it through unchanged.
func (c *Client) PlanRaw(ctx context.Context, req server.PlanRequest) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/v1/plan", req)
}

// Simulate times a plan (or, with req.Baseline set, the SCALE-Sim-style
// baseline; decode the raw bytes yourself for that shape).
func (c *Client) Simulate(ctx context.Context, req server.SimulateRequest) (*server.SimulateResponse, error) {
	body, err := c.do(ctx, http.MethodPost, "/v1/simulate", req)
	if err != nil {
		return nil, err
	}
	var res server.SimulateResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("client: invalid simulate response: %w", err)
	}
	return &res, nil
}

// Models lists the networks the server plans for.
func (c *Client) Models(ctx context.Context) ([]server.ModelInfo, error) {
	body, err := c.do(ctx, http.MethodGet, "/v1/models", nil)
	if err != nil {
		return nil, err
	}
	var infos []server.ModelInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, fmt.Errorf("client: invalid models response: %w", err)
	}
	return infos, nil
}

// do runs the retry loop against the client's own base URL.
func (c *Client) do(ctx context.Context, method, path string, payload any) ([]byte, error) {
	return c.doAt(ctx, c.BaseURL, method, path, payload)
}

// doAt runs the retry loop around once: classify, back off (full jitter with
// the server's Retry-After as a floor), respect the deadline budget. The
// base URL is explicit so the same client (and its retry policy, jitter
// source, and test seams) can address any member of a fleet — the cluster
// transport adapters depend on this. A non-nil payload is sent as its JSON
// encoding.
func (c *Client) doAt(ctx context.Context, baseURL, method, path string, payload any) ([]byte, error) {
	var body []byte
	if payload != nil {
		var err error
		if body, err = json.Marshal(payload); err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
	}
	return c.doChecked(ctx, baseURL, method, path, body, nil)
}

// doChecked is doAt with the request body already encoded (nil sends none)
// and a per-attempt response check: a 200 body that fails check counts as
// that attempt's failure and goes through the same classify/back-off loop
// as a wire error. Snapshot uses it to retry truncated streams.
func (c *Client) doChecked(ctx context.Context, baseURL, method, path string, body []byte, check func(body []byte, hdr http.Header) error) ([]byte, error) {
	retries := c.MaxRetries
	switch {
	case retries == 0:
		retries = DefaultMaxRetries
	case retries < 0:
		retries = 0
	}
	for attempt := 0; ; attempt++ {
		res, hdr, err := c.once(ctx, baseURL, method, path, body)
		if err == nil && check != nil {
			if cerr := check(res, hdr); cerr != nil {
				res, err = nil, cerr
			}
		}
		if err == nil || attempt >= retries || !Retryable(err) {
			return res, err
		}
		d := c.backoff(attempt, err)
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= d {
			// The budget cannot cover the sleep, let alone another attempt:
			// surface the last real failure instead of a bare deadline error.
			return nil, fmt.Errorf("client: retry budget exhausted after %d attempts: %w", attempt+1, err)
		}
		if serr := c.sleepCtx(ctx, d); serr != nil {
			return nil, fmt.Errorf("client: canceled while backing off: %w", err)
		}
	}
}

// once performs a single HTTP exchange, returning the response headers
// alongside the body so callers can verify server-stamped invariants (the
// snapshot entry count).
func (c *Client) once(ctx context.Context, baseURL, method, path string, body []byte) ([]byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, baseURL+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace context so a fleet member receiving this
	// call parents its spans under the originating request — every transport
	// adapter (probe, invalidate, snapshot, status) funnels through here, so
	// all cross-node calls carry the header.
	if tc := obs.TraceContextFrom(ctx); tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.String())
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		// Report context expiry as itself, not as a retryable socket error.
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return b, resp.Header, nil
	}
	msg := strings.TrimSpace(string(b))
	var envelope struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &envelope) == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	return nil, resp.Header, &APIError{
		Status:     resp.StatusCode,
		Message:    msg,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
}

// backoff picks the sleep before retry number attempt+1: full jitter over
// an exponentially growing cap (AWS architecture-blog style), floored by
// the server's Retry-After when it gave one.
func (c *Client) backoff(attempt int, err error) time.Duration {
	base, max := c.BaseDelay, c.MaxDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	if max <= 0 {
		max = DefaultMaxDelay
	}
	ceil := base << min(attempt, 20)
	if ceil > max || ceil <= 0 {
		ceil = max
	}
	d := time.Duration(c.intn(int64(ceil) + 1))
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
	}
	return d
}

// intn draws from the client's jitter source (seedable in tests).
func (c *Client) intn(n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return c.rng.Int63n(n)
}

// sleepCtx waits d or until ctx expires.
func (c *Client) sleepCtx(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter reads the delay-seconds form of the header (the only
// form smm-serve emits); anything else means no hint.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
