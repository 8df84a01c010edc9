// Package progress defines the observation hook of the planning pipeline:
// long-running entry points (planning, simulation, DSE, experiment sweeps)
// accept an optional Func and emit one Event per unit of work — per layer,
// per sweep point, per experiment cell — so callers can drive progress
// bars, logs or cancellation decisions without the pipeline knowing about
// any of them. Like smmerr, the package is a leaf so every layer of the
// stack can emit events without import cycles.
package progress

// Event is one progress notification.
type Event struct {
	// Phase names the pipeline stage emitting the event ("plan",
	// "simulate", "dse", "baseline", "compile", or an experiment driver
	// name such as "fig5").
	Phase string
	// Index is the zero-based unit just completed; Total the number of
	// units in the phase (0 when unknown up front).
	Index, Total int
	// Name identifies the unit (layer name, model name, sweep point).
	Name string
	// Policy is the short variant label of the decision just made
	// ("p2+p", "fb", ...) where the phase selects one — per-layer planning
	// and simulation — and "" elsewhere. It lets observers (span events,
	// structured logs, live dashboards) see which policy won each layer
	// without re-deriving the plan.
	Policy string
	// AccessElems / LatencyCycles carry the pipeline's running totals
	// where they are meaningful (planning), and are zero elsewhere.
	AccessElems   int64
	LatencyCycles int64
}

// Func receives progress events. Implementations must be fast and, for the
// parallel experiment drivers, safe for concurrent use. A nil Func is
// always allowed and means "no observation".
type Func func(Event)

// Emit calls f with ev; a nil receiver is a no-op so pipeline code never
// needs a nil check.
func (f Func) Emit(ev Event) {
	if f != nil {
		f(ev)
	}
}
