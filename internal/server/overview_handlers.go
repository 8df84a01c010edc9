package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"scratchmem/internal/faultinject"
	"scratchmem/internal/obs"
)

// overviewFanout bounds how many status fetches run concurrently. The
// fan-out is one cheap GET per member, so a small constant keeps even a
// large fleet's overview from opening a connection storm.
const overviewFanout = 8

// OverviewMember is one member's slice of the merged overview: either its
// own ClusterStatus document or the error that prevented fetching it. Error
// stubs keep the overview partial-tolerant — an unreachable member degrades
// its row, never the response.
type OverviewMember struct {
	Member string `json:"member"`
	// Error explains a missing Status (dead member, transport failure,
	// injected fault); "" when Status is present.
	Error string `json:"error,omitempty"`
	// Status is the member's own GET /v1/cluster/status document. Its
	// Members list is that member's health view, so comparing rows exposes
	// asymmetric partitions (A sees B dead, B sees A alive).
	Status *ClusterStatus `json:"status,omitempty"`
}

// OverviewTotals aggregates the reachable members' counters into one
// fleet-wide picture.
type OverviewTotals struct {
	// Members is the fleet size; Reachable counts rows carrying a status.
	Members   int `json:"members"`
	Reachable int `json:"reachable"`
	// CacheEntries, CacheHits and CacheMisses sum the reachable members'
	// plan-cache counters.
	CacheEntries int   `json:"cache_entries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	// DegradedPlans sums the reachable members' degradation-ladder output.
	DegradedPlans int64 `json:"degraded_plans"`
}

// OverviewResponse answers GET /v1/cluster/overview: the fleet as merged
// by the queried member. Always HTTP 200 — per-member failures live in the
// member rows, so a half-dead fleet still renders.
type OverviewResponse struct {
	Self    string           `json:"self,omitempty"`
	Members []OverviewMember `json:"members"`
	Totals  OverviewTotals   `json:"totals"`
}

// handleClusterOverview fans out to every member for its status
// document and merges the answers. Bounded (overviewFanout workers, a
// per-member timeout), ctx-aware, and partial-tolerant: dead members and
// failed fetches become per-member error stubs, and the response is 200
// regardless. Standalone servers answer with their own row alone.
func (s *Server) handleClusterOverview(w http.ResponseWriter, r *http.Request) {
	s.met.overviewRequest()
	f := s.fleet
	if f == nil {
		own := s.statusDoc()
		writeJSON(w, OverviewResponse{
			Members: []OverviewMember{{Member: "self", Status: &own}},
			Totals:  mergeTotals(1, []OverviewMember{{Status: &own}}),
		})
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	members := f.Members
	rows := make([]OverviewMember, len(members))
	var wg sync.WaitGroup
	sem := make(chan struct{}, overviewFanout)
	for i, m := range members {
		rows[i] = OverviewMember{Member: m}
		if m == f.Self {
			own := s.statusDoc()
			rows[i].Status = &own
			continue
		}
		wg.Add(1)
		go func(row *OverviewMember, m string) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				row.Error = ctx.Err().Error()
				return
			}
			st, err := s.fetchMemberStatus(ctx, m)
			if err != nil {
				row.Error = err.Error()
				return
			}
			row.Status = st
		}(&rows[i], m)
	}
	wg.Wait()
	writeJSON(w, OverviewResponse{
		Self:    f.Self,
		Members: rows,
		Totals:  mergeTotals(len(members), rows),
	})
}

// fetchMemberStatus pulls one peer's status document. It skips known-dead
// members without a round-trip, crosses the cluster.overview faultinject
// site, and bounds the fetch with its own timeout.
func (s *Server) fetchMemberStatus(ctx context.Context, member string) (*ClusterStatus, error) {
	f := s.fleet
	if !f.Health.Alive(member) {
		return nil, errMemberDead
	}
	if f.Status == nil {
		return nil, errNoStatusTransport
	}
	if err := faultinject.Hit("cluster.overview"); err != nil {
		return nil, err
	}
	mctx, cancel := context.WithTimeout(ctx, memberTimeout)
	defer cancel()
	mctx, span := obs.StartSpan(mctx, "overview_fetch")
	span.SetAttr("member", member)
	defer span.End()
	body, err := f.Status(mctx, member)
	if err != nil {
		span.SetAttr("outcome", "error")
		span.SetAttr("error", err.Error())
		return nil, err
	}
	span.SetAttr("outcome", "ok")
	span.SetAttr("bytes", len(body))
	var st ClusterStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Stable stub reasons, so tests and dashboards can match on them.
var (
	errMemberDead        = overviewError("member marked dead by health probes")
	errNoStatusTransport = overviewError("no status transport configured")
)

type overviewError string

func (e overviewError) Error() string { return string(e) }

// mergeTotals folds the reachable rows' counters into fleet totals.
func mergeTotals(members int, rows []OverviewMember) OverviewTotals {
	t := OverviewTotals{Members: members}
	for _, row := range rows {
		st := row.Status
		if st == nil {
			continue
		}
		t.Reachable++
		t.CacheEntries += st.Cache.Entries
		t.CacheHits += st.Cache.Hits
		t.CacheMisses += st.Cache.Misses
		t.DegradedPlans += st.DegradedPlans
	}
	return t
}
