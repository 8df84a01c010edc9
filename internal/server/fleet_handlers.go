package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"scratchmem/internal/cluster"
	"scratchmem/internal/plancache"
)

// derivedCacheKeys lists every cache entry a plan key anchors: the plan
// itself and the artifacts computed from it. Baseline simulations are keyed
// per split; DSE results use an options-stripped key and are left to LRU.
func derivedCacheKeys(key string) []string {
	return []string{
		"plan:" + key, "sim:" + key, "trace:" + key,
		"base:" + key + ":25", "base:" + key + ":50", "base:" + key + ":75",
	}
}

// removeLocal applies one invalidation to this member's caches, tombstoning
// in-flight computations (plancache.Remove semantics), and reports how many
// stored entries went away.
func (s *Server) removeLocal(key string) int {
	removed := 0
	for _, k := range derivedCacheKeys(key) {
		if s.local.Remove(k) {
			removed++
		}
	}
	s.met.invalidatedLocally()
	return removed
}

// FanoutResult is one member's outcome inside an invalidation response.
type FanoutResult struct {
	Member string `json:"member"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
}

// memberTimeout bounds one member's part in a fan-out, independently of
// the request deadline: its status fetch in the overview, or its
// invalidation delivery, both attempts included. One slow or hung member
// must not hold up the answer about the rest.
const memberTimeout = 2 * time.Second

// invalidateAttempts is how many times a fan-out invalidation is tried per
// member. Best-effort: a member that stays unreachable keeps its entry
// until its own LRU or a later invalidation catches it.
const invalidateAttempts = 2

// fanout delivers an invalidation (key == "" means purge) to every live
// member besides self, each under memberTimeout. The receiving side is
// marked fanout=no, so two members invalidating concurrently cannot
// forward in a loop.
func (s *Server) fanout(ctx context.Context, key string) []FanoutResult {
	f := s.fleet
	if f == nil || f.Invalidate == nil {
		return nil
	}
	members := f.LiveMembers()
	out := make([]FanoutResult, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, memberTimeout)
			defer cancel()
			var err error
			for attempt := 0; attempt < invalidateAttempts; attempt++ {
				if err = f.Invalidate(ctx, m, key); err == nil {
					break
				}
				select {
				case <-ctx.Done():
					attempt = invalidateAttempts
				case <-time.After(50 * time.Millisecond):
				}
			}
			out[i] = FanoutResult{Member: m, OK: err == nil}
			if err != nil {
				out[i].Error = err.Error()
			}
		}(i, m)
	}
	wg.Wait()
	return out
}

// InvalidateResponse answers DELETE /v1/cache/{key}.
type InvalidateResponse struct {
	Key     string         `json:"key"`
	Removed int            `json:"removed"`
	Fanout  []FanoutResult `json:"fanout,omitempty"`
}

// PurgeResponse answers POST /v1/cache/purge.
type PurgeResponse struct {
	Purged int            `json:"purged"`
	Fanout []FanoutResult `json:"fanout,omitempty"`
}

// handleInvalidate removes one plan key (and its derived artifacts) from
// this member, then fans the removal out to every live member. ?fanout=no
// marks a fan-out delivery and applies locally only.
func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	resp := InvalidateResponse{Key: key, Removed: s.removeLocal(key)}
	if r.URL.Query().Get("fanout") != "no" {
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		resp.Fanout = s.fanout(ctx, key)
	}
	writeJSON(w, resp)
}

// handlePurge empties this member's caches and fans the purge out to every
// live member. ?fanout=no marks a fan-out delivery and applies locally only.
func (s *Server) handlePurge(w http.ResponseWriter, r *http.Request) {
	resp := PurgeResponse{Purged: s.local.Purge()}
	s.met.invalidatedLocally()
	if r.URL.Query().Get("fanout") != "no" {
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		resp.Fanout = s.fanout(ctx, "")
	}
	writeJSON(w, resp)
}

// ClusterStatus answers GET /v1/cluster/status: this member's view of the
// fleet plus its own data-plane counters, so one status document carries
// everything the overview fan-out merges. Standalone servers answer with
// themselves alone.
type ClusterStatus struct {
	Self    string                 `json:"self,omitempty"`
	Members []cluster.MemberHealth `json:"members,omitempty"`
	// Cache is this member's own plan-cache counters.
	Cache plancache.Stats `json:"cache"`
	// DegradedPlans counts plans this member produced via the degradation
	// ladder.
	DegradedPlans int64 `json:"degraded_plans"`
}

// statusDoc assembles this member's ClusterStatus — the shared body of
// GET /v1/cluster/status and the self row of GET /v1/cluster/overview.
func (s *Server) statusDoc() ClusterStatus {
	resp := ClusterStatus{
		Cache:         s.local.Stats(),
		DegradedPlans: s.met.degradedCount(),
	}
	if f := s.fleet; f != nil {
		resp.Self = f.Self
		// Self is trivially alive (it is answering); peers come from probes.
		resp.Members = append(resp.Members, cluster.MemberHealth{Member: f.Self, Alive: true})
		resp.Members = append(resp.Members, f.Health.View()...)
	}
	return resp
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.statusDoc())
}
