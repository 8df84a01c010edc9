// Command smm-serve runs the planning-as-a-service HTTP server: the
// paper's analyser (Algorithm 1), the end-to-end simulators and the DSE
// search behind a JSON API with a content-addressed plan cache
// (internal/server, internal/plancache).
//
// Usage:
//
//	smm-serve -addr :8080 -workers 8 -cache 512 -timeout 30s -queue 64
//	smm-serve -log-format json -slow-request 2s -debug-addr 127.0.0.1:6060
//	smm-serve -faults "seed=42;server.plan=error:0.1"   (chaos testing; also $SMM_FAULTS)
//	smm-serve -peers http://n1:8080,http://n2:8080 -self http://n1:8080   (fleet member)
//	smm-serve -probe-every 1s                       (fleet liveness probe period)
//	smm-serve -warm-from http://n1:8080            (boot with a peer's cache)
//	smm-serve -warm-from http://n1:8080 -rewarm-every 30s   (keep pulling missing keys)
//	smm-serve -version
//
// Endpoints:
//
//	POST /v1/plan           {"model": "ResNet18", "glb_kb": 64}
//	POST /v1/plan/batch     {"requests": [{...}, ...]}                    (one round trip)
//	POST /v1/simulate       {"model": "TinyCNN", "glb_kb": 32}            (plan timing)
//	POST /v1/simulate       {..., "baseline": {"split_percent": 50}}      (SCALE-Sim baseline)
//	POST /v1/dse            {"model": "TinyCNN", "glb_kb": 32}
//	GET  /v1/cache/snapshot (ndjson plan-cache dump for -warm-from)
//	DELETE /v1/cache/{key}  (invalidate one plan fleet-wide)
//	POST /v1/cache/purge    (empty the plan caches fleet-wide)
//	GET  /v1/cluster/status (this member's liveness view)
//	GET  /v1/cluster/overview (every member's status, merged)
//	GET  /v1/trace/{key}    (?format=perfetto|csv — key from X-SMM-Plan-Key)
//	GET  /v1/spans
//	GET  /v1/models
//	GET  /v1/version
//	GET  /healthz
//	GET  /metrics
//
// With -peers, the static member list forms a fleet; -self must match this
// node's own entry in -peers. Every member plans its own misses into its
// one -cache plan cache: planning a key costs about what verifying another
// member's copy of it would. The members fan invalidations and purges out
// to each other and merge their status into one overview. The membership
// list is static but liveness is dynamic: every member probes its peers
// each -probe-every, and fan-outs skip known-dead members. A restarted
// member warms its cache from a peer with -warm-from.
//
// All operational output is structured (log/slog; -log-level, -log-format):
// an access-log record per request carrying the trace ID, warn records for
// slow requests past -slow-request and for every injected fault, and the
// startup/shutdown lifecycle. -debug-addr serves net/http/pprof on a
// separate listener so profiling never shares a port with the API.
//
// SIGINT/SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"strings"
	"time"

	"scratchmem/client"
	"scratchmem/internal/cli"
	"scratchmem/internal/cluster"
	"scratchmem/internal/faultinject"
	"scratchmem/internal/server"
)

func main() {
	ctx, stop := cli.SignalContext()
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	cli.Exit("smm-serve", err)
}

// run starts the server and blocks until ctx is cancelled (a signal) or
// the listener fails; it then drains in-flight requests and returns.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smm-serve", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "max concurrent planner/simulator executions (0 = GOMAXPROCS)")
		cache        = fs.Int("cache", server.DefaultCacheEntries, "plan-cache capacity in entries (negative disables storage)")
		timeout      = fs.Duration("timeout", server.DefaultTimeout, "per-request deadline")
		drain        = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		queue        = fs.Int("queue", server.DefaultQueueDepth, "max requests waiting for a worker before shedding with 503 (negative = unbounded)")
		readTimeout  = fs.Duration("read-timeout", 10*time.Second, "max time to read a full request, 0 disables")
		writeTimeout = fs.Duration("write-timeout", 0, "max time to write a response (0 = request timeout + 5s headroom)")
		idleTimeout  = fs.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout, 0 disables")
		slowRequest  = fs.Duration("slow-request", 0, "also log requests slower than this at warn level (0 disables)")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
		faults       = fs.String("faults", os.Getenv("SMM_FAULTS"),
			`arm fault injection for chaos testing, e.g. "seed=42;server.plan=error:0.1;core.layer=latency:0.05:2ms" (default $SMM_FAULTS)`)
		peers = fs.String("peers", "",
			"comma-separated base URLs of every fleet member (empty = standalone)")
		self = fs.String("self", "",
			"this node's own entry in -peers (required with -peers)")
		probeEvery = fs.Duration("probe-every", cluster.DefaultProbeInterval,
			"peer health-probe period (0 disables liveness tracking; fleet mode only)")
		warmFrom = fs.String("warm-from", "",
			"warm the plan cache at boot from a snapshot: a peer base URL or an ndjson file")
		rewarmEvery = fs.Duration("rewarm-every", 0,
			"re-pull the -warm-from snapshot this often, inserting only missing keys (0 disables)")
		version  = fs.Bool("version", false, "print build information and exit")
		logFlags = cli.RegisterLogFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		b, err := json.MarshalIndent(server.Version(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", b)
		return nil
	}
	logger, err := logFlags.Logger(out)
	if err != nil {
		return err
	}
	if *faults != "" {
		if err := faultinject.EnableSpec(*faults); err != nil {
			return err
		}
		defer faultinject.Disable()
		faultinject.SetObserver(func(site string, kind faultinject.Kind) {
			logger.Warn("fault injected", "site", site, "kind", kind.String())
		})
		defer faultinject.SetObserver(nil)
		logger.Warn("FAULT INJECTION ARMED — not for production", "spec", *faults)
	}

	cfg := server.Config{
		Workers:      *workers,
		CacheEntries: *cache,
		Timeout:      *timeout,
		QueueDepth:   *queue,
		Logger:       logger,
		SlowRequest:  *slowRequest,
	}
	// peerConns is the fleet client's own transport (nil standalone).
	var peerConns *http.Transport
	if *peers != "" {
		fleet, conns, err := clusterBackend(*peers, *self, *probeEvery)
		if err != nil {
			return err
		}
		cfg.Fleet = fleet
		peerConns = conns
		logger.Info("fleet member", "self", *self, "peers", *peers, "probe_every", *probeEvery)
	} else if *self != "" {
		return fmt.Errorf("-self is only meaningful with -peers")
	}
	if *rewarmEvery > 0 && *warmFrom == "" {
		return fmt.Errorf("-rewarm-every requires -warm-from")
	}
	srv := server.New(cfg)
	if cfg.Fleet != nil {
		cfg.Fleet.Health.Start()
		defer cfg.Fleet.Stop()
	}
	if *warmFrom != "" {
		rd, err := warmSource(ctx, *warmFrom)
		if err != nil {
			return fmt.Errorf("warm-from: %w", err)
		}
		added, skipped, err := srv.RestoreSnapshot(rd)
		rd.Close()
		if err != nil {
			return fmt.Errorf("warm-from: %w", err)
		}
		logger.Info("cache warmed", "source", *warmFrom, "added", added, "skipped", skipped)
	}
	if *rewarmEvery > 0 {
		// The periodic re-warm closes the healing loop: a member that was
		// down while the fleet kept planning pulls the missing keys back
		// without a restart, and a member that never went down pays only a
		// Contains probe per record.
		go func() {
			t := time.NewTicker(*rewarmEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				rd, err := warmSource(ctx, *warmFrom)
				if err != nil {
					logger.Warn("rewarm pull failed", "source", *warmFrom, "error", err)
					continue
				}
				added, skipped, err := srv.RestoreSnapshotMissing(rd)
				rd.Close()
				if err != nil {
					logger.Warn("rewarm restore failed", "source", *warmFrom, "error", err)
					continue
				}
				if added > 0 || skipped > 0 {
					logger.Info("cache rewarmed", "source", *warmFrom, "added", added, "skipped", skipped)
				}
			}
		}()
	}
	if *writeTimeout == 0 {
		// The handlers enforce their own deadline; give writes headroom
		// beyond it so a slow client cannot truncate a computed response.
		*writeTimeout = *timeout + 5*time.Second
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		defer dln.Close()
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go http.Serve(dln, dbg)
		logger.Info("debug server listening", "debug_addr", dln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String(),
		"workers", *workers, "cache", *cache, "timeout", *timeout)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down, draining in-flight requests", "drain", *drain)
	// Stop talking to peers before draining. A peer connection this member
	// dialled but never used sits in the other member's StateNew, and that
	// member's Shutdown would wait 5 s on it.
	cfg.Fleet.Stop()
	if peerConns != nil {
		peerConns.CloseIdleConnections()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	cs := srv.CacheStats()
	logger.Info("bye", "cache_hits", cs.Hits, "cache_misses", cs.Misses,
		"cache_coalesced", cs.Coalesced, "cache_evictions", cs.Evictions)
	return nil
}

// clusterBackend builds the member's fleet handle over the static member
// list: health probing plus the fan-out invalidation and status transports
// through the resilient client. It also returns the fleet client's
// transport, which no other client shares, so shutdown can close its idle
// peer connections.
func clusterBackend(peers, self string, probeEvery time.Duration) (*cluster.Fleet, *http.Transport, error) {
	var members []string
	for _, m := range strings.Split(peers, ",") {
		if m = strings.TrimRight(strings.TrimSpace(m), "/"); m != "" {
			members = append(members, m)
		}
	}
	if self == "" {
		return nil, nil, fmt.Errorf("-self is required with -peers")
	}
	fleet, err := cluster.NewFleet(members, strings.TrimRight(strings.TrimSpace(self), "/"))
	if err != nil {
		return nil, nil, fmt.Errorf("-peers %q, -self %q: %w", peers, self, err)
	}
	// Fan-outs get a single retry: they are best-effort, and a long
	// client-side retry loop would only hold up the request that fans out.
	peer := client.New("")
	peer.MaxRetries = 1
	conns := http.DefaultTransport.(*http.Transport).Clone()
	peer.HTTPClient = &http.Client{Transport: conns}
	fleet.Invalidate = peer.InvalidateTransport()
	fleet.Status = peer.StatusTransport()
	if probeEvery > 0 {
		fleet.Health = cluster.NewHealth(fleet.Members, fleet.Self, peer.ProbeTransport(),
			cluster.HealthOptions{Interval: probeEvery})
	}
	return fleet, conns, nil
}

// warmSource opens the -warm-from snapshot stream: a peer base URL (the
// /v1/cache/snapshot path is appended when the URL carries none) or a
// local ndjson file.
func warmSource(ctx context.Context, src string) (io.ReadCloser, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		u, err := url.Parse(src)
		if err != nil {
			return nil, err
		}
		if u.Path == "" || u.Path == "/" {
			u.Path = "/v1/cache/snapshot"
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("%s answered %d", u, resp.StatusCode)
		}
		return resp.Body, nil
	}
	return os.Open(src)
}
