// Package faultinject is a deterministic, seeded fault-injection registry
// for chaos testing the serving pipeline. Production code marks named
// sites with Hit("site"); a disabled registry answers in a single atomic
// load, so the hooks cost nothing in normal operation. When enabled (the
// smm-serve -faults flag, the SMM_FAULTS environment variable, or Enable
// in tests), each site fires its configured faults with a per-site
// probability drawn from one seeded stream, so a chaos run replays
// identically for the same seed and request order.
//
// Three fault kinds exist:
//
//   - error   — Hit returns an error wrapping ErrInjected, so callers (and
//     the HTTP server) can classify it as a transient internal fault
//     (503, retryable) rather than a real failure.
//   - latency — Hit sleeps for the configured delay, then proceeds.
//   - panic   — Hit panics with a *PanicValue, exercising recover paths,
//     semaphore-release defers and the server's circuit breaker.
//
// Registered sites (the string is the contract; keep this list in sync):
//
//	server.plan       before every planner execution  (internal/server)
//	server.simulate   before every plan timing        (internal/server)
//	plancache.flight  inside every single-flight computation (internal/plancache)
//	core.layer        per planned layer               (internal/core)
//	dram.access       per replayed DMA event          (internal/dram)
//	cluster.snapshot  before every cache-snapshot stream (internal/server)
//	cluster.health    before every liveness probe     (internal/cluster)
//	cluster.overview  before every overview status fan-out fetch (internal/server)
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks every error produced by an "error" fault. Match with
// errors.Is; the HTTP server maps it to 503 + Retry-After (transient),
// never to a bare 500.
var ErrInjected = errors.New("faultinject: injected fault")

// IsInjected reports whether err stems from an injected error fault.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// PanicValue is what "panic" faults panic with, so recover sites and chaos
// tests can tell an injected panic from a genuine bug.
type PanicValue struct{ Site string }

func (p *PanicValue) String() string { return "faultinject: injected panic at " + p.Site }

// Kind selects what a fault does when it fires.
type Kind int

const (
	// KindError makes Hit return an ErrInjected-wrapping error.
	KindError Kind = iota
	// KindLatency makes Hit sleep for Fault.Delay.
	KindLatency
	// KindPanic makes Hit panic with a *PanicValue.
	KindPanic
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one configured behaviour at one site.
type Fault struct {
	// Site names the injection point (see the package comment).
	Site string
	// Kind selects error, latency or panic.
	Kind Kind
	// P is the per-hit firing probability in [0, 1].
	P float64
	// Delay is the added latency for KindLatency faults.
	Delay time.Duration
}

// SiteStats counts one site's traffic.
type SiteStats struct {
	// Hits counts how many times the site was reached while enabled.
	Hits int64
	// Injected counts how many hits actually fired a fault.
	Injected int64
}

// registry holds the fault table. One package-level instance exists; the
// enabled flag in front of it keeps the disabled path allocation- and
// lock-free.
type registry struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults map[string][]Fault
	stats  map[string]*SiteStats
}

var (
	enabled atomic.Bool
	reg     = &registry{}
	// observer is notified of every fired fault; see SetObserver.
	observer atomic.Value // holds observerFunc
)

type observerFunc func(site string, kind Kind)

// SetObserver installs fn to be called once per fired fault with the site
// and kind, outside the registry lock on the hitting goroutine (so fn may
// log). Panic faults notify before panicking. A nil fn removes the
// observer. Observers must be fast and safe for concurrent use.
func SetObserver(fn func(site string, kind Kind)) {
	if fn == nil {
		observer.Store(observerFunc(nil))
		return
	}
	observer.Store(observerFunc(fn))
}

// notify fans a fired fault out to the observer, if any.
func notify(site string, kind Kind) {
	if fn, _ := observer.Load().(observerFunc); fn != nil {
		fn(site, kind)
	}
}

// Enabled reports whether fault injection is active. It is the fast path
// every Hit takes first.
func Enabled() bool { return enabled.Load() }

// Enable installs the given faults and arms the registry. The seed fixes
// the probability stream, so identical request orders replay identically.
// Enable replaces any previous configuration.
func Enable(seed int64, faults ...Fault) {
	reg.mu.Lock()
	reg.rng = rand.New(rand.NewSource(seed))
	reg.faults = make(map[string][]Fault, len(faults))
	reg.stats = make(map[string]*SiteStats)
	for _, f := range faults {
		reg.faults[f.Site] = append(reg.faults[f.Site], f)
		if reg.stats[f.Site] == nil {
			reg.stats[f.Site] = &SiteStats{}
		}
	}
	reg.mu.Unlock()
	enabled.Store(len(faults) > 0)
}

// Disable disarms the registry; Hit returns to its zero-cost path.
func Disable() {
	enabled.Store(false)
	reg.mu.Lock()
	reg.faults = nil
	reg.stats = nil
	reg.mu.Unlock()
}

// Hit marks a fault-injection site. Disabled, it is a single atomic load.
// Enabled, it evaluates the site's faults in configured order: the first
// one whose probability fires acts — error faults return, latency faults
// sleep and continue to the next fault, panic faults panic.
func Hit(site string) error {
	if !enabled.Load() {
		return nil
	}
	return reg.hit(site)
}

func (r *registry) hit(site string) error {
	r.mu.Lock()
	fs := r.faults[site]
	if len(fs) == 0 {
		r.mu.Unlock()
		return nil
	}
	st := r.stats[site]
	st.Hits++
	var fired *Fault
	var delay time.Duration
	var delayed bool
	for i := range fs {
		if r.rng.Float64() >= fs[i].P {
			continue
		}
		st.Injected++
		if fs[i].Kind == KindLatency {
			// Latency composes with a subsequent error/panic fault.
			delay += fs[i].Delay
			delayed = true
			continue
		}
		fired = &fs[i]
		break
	}
	r.mu.Unlock()
	if delayed {
		notify(site, KindLatency)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if fired == nil {
		return nil
	}
	notify(site, fired.Kind)
	switch fired.Kind {
	case KindPanic:
		panic(&PanicValue{Site: site})
	default:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
}

// Stats snapshots the per-site counters of the current configuration.
func Stats() map[string]SiteStats {
	out := make(map[string]SiteStats)
	reg.mu.Lock()
	for site, st := range reg.stats {
		out[site] = *st
	}
	reg.mu.Unlock()
	return out
}

// ParseSpec parses the -faults / SMM_FAULTS specification: a semicolon-
// separated list of clauses, each either
//
//	seed=<int64>
//	<site>=<kind>:<probability>[:<delay>]
//
// e.g. "seed=42;core.layer=error:0.1;server.plan=latency:0.5:5ms;plancache.flight=panic:0.01".
// The delay is required for latency faults and rejected for the others.
// The same site may appear multiple times; clauses keep their order.
func ParseSpec(spec string) (seed int64, faults []Fault, err error) {
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		site, rest, ok := strings.Cut(clause, "=")
		if !ok {
			return 0, nil, fmt.Errorf("faultinject: clause %q is not site=kind:prob or seed=N", clause)
		}
		site = strings.TrimSpace(site)
		if site == "seed" {
			seed, err = strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("faultinject: bad seed %q: %v", rest, err)
			}
			continue
		}
		parts := strings.Split(rest, ":")
		if len(parts) < 2 {
			return 0, nil, fmt.Errorf("faultinject: clause %q needs kind:probability", clause)
		}
		f := Fault{Site: site}
		switch parts[0] {
		case "error":
			f.Kind = KindError
		case "latency":
			f.Kind = KindLatency
		case "panic":
			f.Kind = KindPanic
		default:
			return 0, nil, fmt.Errorf("faultinject: unknown kind %q (want error, latency or panic)", parts[0])
		}
		f.P, err = strconv.ParseFloat(parts[1], 64)
		if err != nil || f.P < 0 || f.P > 1 {
			return 0, nil, fmt.Errorf("faultinject: bad probability %q (want [0,1])", parts[1])
		}
		switch {
		case f.Kind == KindLatency && len(parts) == 3:
			f.Delay, err = time.ParseDuration(parts[2])
			if err != nil || f.Delay < 0 {
				return 0, nil, fmt.Errorf("faultinject: bad delay %q: %v", parts[2], err)
			}
		case f.Kind == KindLatency:
			return 0, nil, fmt.Errorf("faultinject: latency fault %q needs a delay (kind:prob:duration)", clause)
		case len(parts) != 2:
			return 0, nil, fmt.Errorf("faultinject: %s fault %q takes no delay", f.Kind, clause)
		}
		faults = append(faults, f)
	}
	return seed, faults, nil
}

// EnableSpec parses spec and enables it. An empty spec is a no-op.
func EnableSpec(spec string) error {
	seed, faults, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	if len(faults) == 0 {
		return nil
	}
	Enable(seed, faults...)
	return nil
}
