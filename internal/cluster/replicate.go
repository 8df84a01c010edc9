package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"scratchmem/internal/faultinject"
	"scratchmem/internal/obs"
)

// PushFunc delivers one replication payload to a member (POST
// /v1/peer/replicate through the client's transport). The payload is an
// encoded server.SnapshotRecord, posted as it is: self-contained and
// verifiable by re-rendering, so the receiver trusts nothing it cannot
// re-derive.
type PushFunc func(ctx context.Context, baseURL string, payload []byte) error

// Defaults for ReplicatorOptions zero values.
const (
	// DefaultReplicateQueue bounds the pending-push queue. Plans are tiny
	// (a few KB of JSON), so 64 queued pushes cost well under a MB while
	// absorbing a planning burst an order of magnitude faster than the
	// successor can be slow.
	DefaultReplicateQueue = 64
	// DefaultPushTimeout bounds one replication push.
	DefaultPushTimeout = 5 * time.Second
)

// ReplicatorOptions tunes a Replicator. The zero value selects the defaults.
type ReplicatorOptions struct {
	// QueueDepth bounds the pending-push queue (DefaultReplicateQueue when
	// <= 0). A full queue drops the oldest pending push: under sustained
	// backpressure the freshest plans are the ones worth protecting, and a
	// dropped replica costs one recompute after an owner death, never a
	// wrong answer.
	QueueDepth int
	// PushTimeout bounds each push (DefaultPushTimeout when <= 0).
	PushTimeout time.Duration
}

// ReplStats counts replication outcomes on the sending side (it is also
// the "replication" object of GET /v1/cluster/status).
type ReplStats struct {
	// Enqueued counts payloads accepted into the queue.
	Enqueued int64 `json:"enqueued"`
	// Sent counts pushes the successor acknowledged.
	Sent int64 `json:"sent"`
	// Errors counts pushes that failed (transport error, injected fault,
	// receiver rejection); best-effort, the payload is not retried.
	Errors int64 `json:"errors"`
	// Dropped counts pushes evicted by drop-oldest backpressure.
	Dropped int64 `json:"dropped"`
	// Skipped counts payloads with nowhere to go (no distinct successor, or
	// the successor is known dead).
	Skipped int64 `json:"skipped"`
	// Queued is the current queue length.
	Queued int `json:"queued"`
}

// replItem is one pending push: the encoded payload and the successor it
// goes to, resolved at enqueue time so the worker never touches the ring,
// plus the enqueuing request's trace context so the asynchronous push still
// lands in the originating trace.
type replItem struct {
	succ    string
	payload []byte
	tc      obs.TraceContext
}

// Replicator asynchronously pushes freshly computed plans, as encoded
// records, from their ring owner to the key's ring successor, so an owner
// death costs zero duplicate planner runs for already-replicated keys: the
// survivors find the replica where the re-assigned ring arc now points.
// Replication is strictly best-effort — a lost push degrades to one
// recompute, and every received payload is verified by re-rendering before
// it is trusted — so no acknowledgement, retry or ordering protocol is
// needed.
type Replicator struct {
	ring   *Ring
	self   string
	push   PushFunc
	health *Health
	opts   ReplicatorOptions

	mu    sync.Mutex
	queue []replItem
	wake  chan struct{}

	inflight atomic.Int64 // 1 while the worker is mid-push

	enqueued, sent, errors, dropped, skipped atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewReplicator builds a replicator pushing through push; health (may be
// nil) lets it skip pushes to known-dead successors. Start launches the
// worker.
func NewReplicator(ring *Ring, self string, push PushFunc, health *Health, opts ReplicatorOptions) *Replicator {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultReplicateQueue
	}
	if opts.PushTimeout <= 0 {
		opts.PushTimeout = DefaultPushTimeout
	}
	return &Replicator{
		ring:   ring,
		self:   self,
		push:   push,
		health: health,
		opts:   opts,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Enqueue queues key's encoded payload for its ring successor. Payloads
// with no distinct successor (single-member ring, or the successor is this
// process) or a known-dead successor are counted skipped. A full queue
// drops the oldest pending push (drop-oldest: fresh plans win under
// backpressure).
// ctx is only read for its trace context — the push itself outlives the
// caller and runs under the worker's own timeout — so the replica push
// appears in the trace of the request that computed the plan.
func (r *Replicator) Enqueue(ctx context.Context, key string, payload []byte) {
	if r == nil {
		return
	}
	succ, ok := r.ring.Successor(key)
	if !ok || succ == r.self || !r.health.Alive(succ) {
		r.skipped.Add(1)
		return
	}
	r.mu.Lock()
	if len(r.queue) >= r.opts.QueueDepth {
		r.queue = r.queue[1:]
		r.dropped.Add(1)
	}
	r.queue = append(r.queue, replItem{succ: succ, payload: payload, tc: obs.TraceContextFrom(ctx)})
	r.mu.Unlock()
	r.enqueued.Add(1)
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Start launches the push worker; Stop ends it.
func (r *Replicator) Start() {
	if r == nil {
		return
	}
	go func() {
		defer close(r.done)
		for {
			item, ok := r.next()
			if !ok {
				select {
				case <-r.stop:
					return
				case <-r.wake:
					continue
				}
			}
			r.send(item)
		}
	}()
}

// next pops the oldest pending push.
func (r *Replicator) next() (replItem, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.queue) == 0 {
		return replItem{}, false
	}
	item := r.queue[0]
	r.queue = r.queue[1:]
	r.inflight.Store(1)
	return item, true
}

// send performs one push. It crosses the cluster.replicate faultinject
// site, so the chaos suite can fail replication without network surgery.
// The item's captured trace context rides the push context, so the
// transport stamps the originating request's TraceparentHeader even though
// the push runs on the worker goroutine long after the request returned.
func (r *Replicator) send(item replItem) {
	defer r.inflight.Store(0)
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.PushTimeout)
	defer cancel()
	ctx = obs.WithRemoteParent(ctx, item.tc)
	err := faultinject.Hit("cluster.replicate")
	if err == nil {
		err = r.push(ctx, item.succ, item.payload)
	}
	if err != nil {
		r.errors.Add(1)
		return
	}
	r.sent.Add(1)
}

// Stop ends the worker and waits for it to finish any in-flight push. Safe
// to call more than once, and before Start.
func (r *Replicator) Stop() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.stop) })
	select {
	case <-r.done:
	case <-time.After(r.opts.PushTimeout + time.Second):
	}
}

// Pending reports queued plus in-flight pushes; tests poll it to zero.
func (r *Replicator) Pending() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	n := len(r.queue)
	r.mu.Unlock()
	return n + int(r.inflight.Load())
}

// Flush blocks until every pending push has been attempted or ctx expires.
func (r *Replicator) Flush(ctx context.Context) error {
	if r == nil {
		return nil
	}
	for r.Pending() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Stats snapshots the replication counters.
func (r *Replicator) Stats() ReplStats {
	if r == nil {
		return ReplStats{}
	}
	r.mu.Lock()
	queued := len(r.queue)
	r.mu.Unlock()
	return ReplStats{
		Enqueued: r.enqueued.Load(),
		Sent:     r.sent.Load(),
		Errors:   r.errors.Load(),
		Dropped:  r.dropped.Load(),
		Skipped:  r.skipped.Load(),
		Queued:   queued,
	}
}
