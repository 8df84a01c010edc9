package cluster

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scratchmem/internal/faultinject"
)

// ProbeFunc checks one member's liveness (GET /healthz through the client's
// transport). A nil error means the member answered.
type ProbeFunc func(ctx context.Context, baseURL string) error

// Defaults for HealthOptions zero values.
const (
	// DefaultProbeInterval is how often the health loop probes every peer.
	DefaultProbeInterval = time.Second
	// DefaultProbeTimeout bounds one probe round-trip.
	DefaultProbeTimeout = 2 * time.Second
	// DefaultDeadAfter is how many consecutive probe failures mark a member
	// dead. Two, so one dropped packet does not flap the member; a genuinely
	// dead process fails both well inside a probe interval.
	DefaultDeadAfter = 2
)

// HealthOptions tunes a Health tracker. The zero value selects the defaults.
type HealthOptions struct {
	// Interval is the probe period (DefaultProbeInterval when <= 0).
	Interval time.Duration
	// Timeout bounds each probe (DefaultProbeTimeout when <= 0).
	Timeout time.Duration
	// DeadAfter is the consecutive-failure threshold past which a member is
	// considered dead (DefaultDeadAfter when <= 0).
	DeadAfter int
}

// MemberHealth is one member's liveness as this process sees it.
type MemberHealth struct {
	Member string `json:"member"`
	// Alive reports the member under the consecutive-failure threshold.
	// Members start alive: liveness is an optimistic view that only probes
	// may retract, so a fresh tracker never blocks traffic.
	Alive bool `json:"alive"`
	// ConsecutiveFailures counts probe failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastProbe is when the member was last probed (zero = never).
	LastProbe time.Time `json:"last_probe"`
	// LastError is the most recent probe failure ("" after a success).
	LastError string `json:"last_error,omitempty"`
}

// Health tracks peer liveness with periodic probes, so fan-outs skip a
// known-dead member immediately instead of burning a round-trip on it.
// Membership stays static (Fleet.Members); only liveness is dynamic. A nil
// *Health reports every member alive, so callers never branch on "health
// disabled".
type Health struct {
	probe ProbeFunc
	opts  HealthOptions

	mu      sync.Mutex
	members map[string]*memberState
	order   []string // stable probe/view order

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type memberState struct {
	consecutive int
	lastProbe   time.Time
	lastError   string
}

// NewHealth builds a tracker over every member except self (a process does
// not probe itself). probe is required; Start begins the loop.
func NewHealth(members []string, self string, probe ProbeFunc, opts HealthOptions) *Health {
	if opts.Interval <= 0 {
		opts.Interval = DefaultProbeInterval
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultProbeTimeout
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = DefaultDeadAfter
	}
	h := &Health{
		probe:   probe,
		opts:    opts,
		members: make(map[string]*memberState),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, m := range members {
		if m == self {
			continue
		}
		h.members[m] = &memberState{}
		h.order = append(h.order, m)
	}
	sort.Strings(h.order)
	return h
}

// Start launches the periodic probe loop (one immediate round, then every
// Interval). Stop ends it.
func (h *Health) Start() {
	if h == nil {
		return
	}
	h.started.Store(true)
	go func() {
		defer close(h.done)
		t := time.NewTicker(h.opts.Interval)
		defer t.Stop()
		h.ProbeNow(context.Background())
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.ProbeNow(context.Background())
			}
		}
	}()
}

// Stop ends the probe loop and waits for it to exit. Safe to call more than
// once, and before Start (the loop then never runs).
func (h *Health) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() {
		close(h.stop)
		if h.started.Load() {
			<-h.done
		}
	})
}

// ProbeNow runs one synchronous probe round over every tracked member. The
// loop calls it on its ticker; tests call it directly for determinism.
// Probes cross the cluster.health faultinject site, so the chaos suite can
// fail probes without killing processes.
func (h *Health) ProbeNow(ctx context.Context) {
	if h == nil {
		return
	}
	h.mu.Lock()
	members := make([]string, len(h.order))
	copy(members, h.order)
	h.mu.Unlock()
	for _, m := range members {
		pctx, cancel := context.WithTimeout(ctx, h.opts.Timeout)
		err := faultinject.Hit("cluster.health")
		if err == nil {
			err = h.probe(pctx, m)
		}
		cancel()
		h.observe(m, err)
	}
}

// observe folds one probe outcome into the member's state.
func (h *Health) observe(member string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.members[member]
	if !ok {
		return
	}
	st.lastProbe = time.Now()
	if err != nil {
		st.consecutive++
		st.lastError = err.Error()
		return
	}
	st.consecutive = 0
	st.lastError = ""
}

// Alive reports whether member is currently considered live. Untracked
// members (including self) and a nil tracker are always alive: liveness only
// ever retracts reachability it has positive evidence against.
func (h *Health) Alive(member string) bool {
	if h == nil {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.members[member]
	if !ok {
		return true
	}
	return st.consecutive < h.opts.DeadAfter
}

// View snapshots every tracked member's state, sorted by member.
func (h *Health) View() []MemberHealth {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]MemberHealth, 0, len(h.order))
	for _, m := range h.order {
		st := h.members[m]
		out = append(out, MemberHealth{
			Member:              m,
			Alive:               st.consecutive < h.opts.DeadAfter,
			ConsecutiveFailures: st.consecutive,
			LastProbe:           st.lastProbe,
			LastError:           st.lastError,
		})
	}
	return out
}
