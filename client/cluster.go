package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"scratchmem/internal/cluster"
	"scratchmem/internal/server"
)

// PlanBatch plans many requests in one round trip through POST
// /v1/plan/batch. The server plans the items concurrently, and items under
// the same options share the answers to their layers' planning questions,
// so a batch of one-layer mutants is cheaper than the same requests issued
// one by one. Items succeed and fail independently; check each
// BatchItem.Status.
func (c *Client) PlanBatch(ctx context.Context, reqs []server.PlanRequest) (*server.BatchResponse, error) {
	body, err := c.do(ctx, http.MethodPost, "/v1/plan/batch", server.BatchRequest{Requests: reqs})
	if err != nil {
		return nil, err
	}
	var res server.BatchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("client: invalid batch response: %w", err)
	}
	return &res, nil
}

// Snapshot fetches the server's cache snapshot stream (GET
// /v1/cache/snapshot): newline-delimited SnapshotRecord JSON, most recently
// used first, ready to feed server.RestoreSnapshot on another node. The
// stream is verified against the server's X-SMM-Snapshot-Entries count: a
// body truncated by a dropped connection surfaces as *PartialStreamError
// (retried like any transient failure, since 503s and truncation both pass
// through the same backoff loop with its Retry-After floor).
func (c *Client) Snapshot(ctx context.Context) ([]byte, error) {
	return c.doChecked(ctx, c.BaseURL, http.MethodGet, "/v1/cache/snapshot", nil, checkSnapshotComplete)
}

// checkSnapshotComplete compares received ndjson records against the
// server-advertised count. No header means no claim (nothing to verify).
func checkSnapshotComplete(body []byte, hdr http.Header) error {
	h := hdr.Get("X-SMM-Snapshot-Entries")
	if h == "" {
		return nil
	}
	want, err := strconv.Atoi(h)
	if err != nil || want < 0 {
		return nil
	}
	got := 0
	for _, line := range strings.Split(string(body), "\n") {
		if strings.TrimSpace(line) != "" {
			got++
		}
	}
	if got != want {
		return &PartialStreamError{Got: got, Want: want}
	}
	return nil
}

// Version fetches the server's build information.
func (c *Client) Version(ctx context.Context) (*server.VersionInfo, error) {
	body, err := c.do(ctx, http.MethodGet, "/v1/version", nil)
	if err != nil {
		return nil, err
	}
	var v server.VersionInfo
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("client: invalid version response: %w", err)
	}
	return &v, nil
}

// ProbeTransport adapts the client into a cluster.ProbeFunc: one GET
// /healthz per call, deliberately without the retry loop — the health
// tracker is itself the retry policy (consecutive failures, probe period),
// and retrying inside a probe would mask exactly the slowness it measures.
func (c *Client) ProbeTransport() cluster.ProbeFunc {
	return func(ctx context.Context, baseURL string) error {
		_, _, err := c.once(ctx, strings.TrimRight(baseURL, "/"), http.MethodGet, "/healthz", nil)
		return err
	}
}

// InvalidateTransport adapts the client into a cluster.InvalidateFunc — the
// fan-out half of fleet-wide invalidation. Deliveries carry fanout=no so
// the receiving member applies locally and never re-fans out.
func (c *Client) InvalidateTransport() cluster.InvalidateFunc {
	return func(ctx context.Context, baseURL, key string) error {
		base := strings.TrimRight(baseURL, "/")
		var err error
		if key == "" {
			_, err = c.doAt(ctx, base, http.MethodPost, "/v1/cache/purge?fanout=no", nil)
		} else {
			_, err = c.doAt(ctx, base, http.MethodDelete, "/v1/cache/"+url.PathEscape(key)+"?fanout=no", nil)
		}
		return err
	}
}

// Invalidate removes one plan key (and its derived artifacts) fleet-wide:
// the addressed member applies it locally and fans it out to every live
// peer. The response reports per-member outcomes.
func (c *Client) Invalidate(ctx context.Context, key string) (*server.InvalidateResponse, error) {
	body, err := c.do(ctx, http.MethodDelete, "/v1/cache/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	var res server.InvalidateResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("client: invalid invalidate response: %w", err)
	}
	return &res, nil
}

// Purge empties the plan caches fleet-wide (POST /v1/cache/purge).
func (c *Client) Purge(ctx context.Context) (*server.PurgeResponse, error) {
	body, err := c.do(ctx, http.MethodPost, "/v1/cache/purge", nil)
	if err != nil {
		return nil, err
	}
	var res server.PurgeResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("client: invalid purge response: %w", err)
	}
	return &res, nil
}

// ClusterStatus fetches the addressed member's liveness view of the fleet.
func (c *Client) ClusterStatus(ctx context.Context) (*server.ClusterStatus, error) {
	body, err := c.do(ctx, http.MethodGet, "/v1/cluster/status", nil)
	if err != nil {
		return nil, err
	}
	var res server.ClusterStatus
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("client: invalid cluster status response: %w", err)
	}
	return &res, nil
}

// StatusTransport adapts the client into a cluster.StatusFunc: one GET
// /v1/cluster/status against any member, through this client's retry
// policy — the fan-out primitive behind GET /v1/cluster/overview.
func (c *Client) StatusTransport() cluster.StatusFunc {
	return func(ctx context.Context, baseURL string) ([]byte, error) {
		return c.doAt(ctx, strings.TrimRight(baseURL, "/"), http.MethodGet, "/v1/cluster/status", nil)
	}
}

// ClusterOverview fetches the merged fleet view as seen by the addressed
// member: every member's own status (or a per-member error stub) and fleet
// totals. smm-top polls exactly this.
func (c *Client) ClusterOverview(ctx context.Context) (*server.OverviewResponse, error) {
	body, err := c.do(ctx, http.MethodGet, "/v1/cluster/overview", nil)
	if err != nil {
		return nil, err
	}
	var res server.OverviewResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("client: invalid cluster overview response: %w", err)
	}
	return &res, nil
}
