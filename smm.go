// Package scratchmem is a Go reproduction of "Scratchpad Memory Management
// for Deep Learning Accelerators" (Zouzoula, Maleki, Azhar, Trancoso —
// ICPP 2024): a software memory-management technique for DL accelerators
// with a unified on-chip scratchpad (global buffer) that selects, per layer,
// among six reuse policies (intra-layer reuse and policies 1-5, each with an
// optional prefetching variant) to minimise either off-chip traffic or
// latency under the buffer-size constraint.
//
// The package is a thin façade over the implementation packages:
//
//   - internal/core     — the analyser (paper Algorithm 1), Hom/Het plans,
//     inter-layer reuse
//   - internal/policy   — the per-policy memory/access/latency estimators
//   - internal/model    — the six Table-2 networks + JSON / SCALE-Sim
//     topology formats
//   - internal/engine   — a functional executor validating plans down to
//     int32 arithmetic
//   - internal/scalesim — the SCALE-Sim-style separate-buffer baseline
//
// Quick start:
//
//	net, _ := scratchmem.BuiltinModel("ResNet18")
//	plan, _ := scratchmem.PlanModel(net, scratchmem.PlanOptions{
//		GLBKiloBytes: 64,
//		Objective:    scratchmem.MinAccesses,
//	})
//	fmt.Println(plan.AccessBytes(), plan.PolicyMix())
package scratchmem

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"strconv"
	"strings"

	"scratchmem/internal/core"
	"scratchmem/internal/dse"
	"scratchmem/internal/model"
	"scratchmem/internal/obs"
	"scratchmem/internal/policy"
	"scratchmem/internal/program"
	"scratchmem/internal/scalesim"
	"scratchmem/internal/simulate"
	"scratchmem/internal/smmerr"
)

// Re-exported core types. External users name them through these aliases.
type (
	// Network is an ordered list of layers executed one by one.
	Network = model.Network
	// Plan is a per-layer execution plan (a "management scheme").
	Plan = core.Plan
	// Config is the accelerator specification fed to the estimators.
	Config = policy.Config
	// Objective selects the optimisation target.
	Objective = core.Objective
	// PolicyID identifies one of the paper's memory-management policies.
	PolicyID = policy.ID
	// BaselineConfig describes a separate-buffer SCALE-Sim-style baseline.
	BaselineConfig = scalesim.Config
	// BaselineResult aggregates a baseline simulation of a network.
	BaselineResult = scalesim.NetworkResult
)

// Objectives.
const (
	// MinAccesses minimises off-chip traffic (paper Algorithm 1).
	MinAccesses = core.MinAccesses
	// MinLatency minimises estimated latency.
	MinLatency = core.MinLatency
)

// Policy identifiers, in paper order.
const (
	IntraLayerReuse     = policy.IntraLayer
	Policy1IfmapReuse   = policy.P1IfmapReuse
	Policy2FilterReuse  = policy.P2FilterReuse
	Policy3PerChannel   = policy.P3PerChannel
	Policy4PartialIfmap = policy.P4PartialIfmap
	Policy5PartialPerCh = policy.P5PartialPerChannel
)

// DefaultConfig returns the paper's accelerator setup (16x16 PEs, 8-bit
// data, 16 B/cycle DRAM bandwidth, padding counted) for a GLB of the given
// size in kB.
func DefaultConfig(glbKB int) Config { return policy.Default(glbKB) }

// BuiltinModel returns one of the built-in networks by name
// (case-insensitive): the six Table-2 models plus "TinyCNN". The network is
// a copy the caller owns and may modify.
func BuiltinModel(name string) (*Network, error) { return model.Builtin(name) }

// BuiltinModels returns the six networks of the paper's Table 2.
func BuiltinModels() []*Network { return model.Builtins() }

// LoadModel reads a network description from disk. Files ending in .csv are
// parsed as SCALE-Sim topology files; everything else as the JSON format.
func LoadModel(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		base := path[strings.LastIndexByte(path, '/')+1:]
		return model.ReadTopologyCSV(strings.TrimSuffix(base, ".csv"), f)
	}
	return model.ReadJSON(f)
}

// SaveModel writes a network description; .csv selects the SCALE-Sim
// topology format, anything else JSON.
func SaveModel(n *Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		return n.WriteTopologyCSV(f)
	}
	return n.WriteJSON(f)
}

// PlanOptions parameterise PlanModel.
type PlanOptions struct {
	// GLBKiloBytes is the unified scratchpad size (required unless Config
	// is set).
	GLBKiloBytes int
	// Config overrides the whole accelerator specification; when non-zero
	// it takes precedence over GLBKiloBytes.
	Config Config
	// Objective selects MinAccesses (default) or MinLatency.
	Objective Objective
	// Homogeneous applies the single best policy to every layer (the
	// paper's Hom scheme) instead of a per-layer choice (Het).
	Homogeneous bool
	// DisablePrefetch removes the "+p" policy variants.
	DisablePrefetch bool
	// InterLayerReuse lets a layer's ofmap stay resident to feed the next
	// layer (§5.4).
	InterLayerReuse bool
	// Strict disables the degradation ladder: an infeasible request returns
	// ErrInfeasible exactly as it did before degraded plans existed, instead
	// of falling back to a more conservative rung.
	Strict bool
}

func (o PlanOptions) config() (Config, error) {
	cfg := o.Config
	if cfg == (Config{}) {
		if o.GLBKiloBytes <= 0 {
			return Config{}, smmerr.BadModelf("scratchmem: PlanOptions needs GLBKiloBytes or Config")
		}
		cfg = policy.Default(o.GLBKiloBytes)
	}
	return cfg, smmerr.BadModel(cfg.Validate())
}

// PlanKey returns the canonical SHA-256 content hash of a planning request:
// the hex digest of the network's deterministic JSON form plus the resolved
// accelerator configuration and every plan option that affects the result.
// Planning is a pure function of these inputs, so the key addresses a plan
// cache (internal/plancache, served by smm-serve): equal keys ⇒ equal
// plans. Requests expressed via GLBKiloBytes and via the equivalent
// explicit Config hash identically because the key is built from the
// resolved Config. It is PlanKeyCanonical of the network's canonical JSON.
func PlanKey(n *Network, o PlanOptions) (string, error) {
	return PlanKeyCanonical(model.AppendCanonicalJSON(make([]byte, 0, 128*len(n.Layers)+64), n), o)
}

// PlanKeyCanonical is PlanKey for a network given by its canonical JSON,
// the bytes model.AppendCanonicalJSON writes, which model.DecodeNetwork
// returns with the network and a builtin carries with its shared copy: the
// server's ingest seam keys requests without encoding a network again.
func PlanKeyCanonical(canon []byte, o PlanOptions) (string, error) {
	cfg, err := o.config()
	if err != nil {
		return "", err
	}
	if cfg.Batch == 1 {
		cfg.Batch = 0 // same single inference as 0 (Config.BatchSize)
	}
	// The network's canonical JSON, a zero byte separating the domains, then
	// the options as json.Marshal encodes this fixed-field struct:
	//
	//	struct{ Cfg Config; Objective string; Homogeneous, DisablePrefetch,
	//		InterLayerReuse, Strict bool }
	var opts [256]byte
	buf := append(opts[:0], 0)
	buf = append(buf, `{"Cfg":{"GLBBytes":`...)
	buf = strconv.AppendInt(buf, cfg.GLBBytes, 10)
	buf = append(buf, `,"DataWidthBits":`...)
	buf = strconv.AppendInt(buf, int64(cfg.DataWidthBits), 10)
	buf = append(buf, `,"OpsPerCycle":`...)
	buf = strconv.AppendInt(buf, int64(cfg.OpsPerCycle), 10)
	buf = append(buf, `,"DRAMBytesPerCycle":`...)
	buf = strconv.AppendInt(buf, int64(cfg.DRAMBytesPerCycle), 10)
	buf = append(buf, `,"IncludePadding":`...)
	buf = strconv.AppendBool(buf, cfg.IncludePadding)
	buf = append(buf, `,"Batch":`...)
	buf = strconv.AppendInt(buf, int64(cfg.Batch), 10)
	buf = append(buf, `},"Objective":"`...)
	buf = append(buf, o.Objective.String()...)
	buf = append(buf, `","Homogeneous":`...)
	buf = strconv.AppendBool(buf, o.Homogeneous)
	buf = append(buf, `,"DisablePrefetch":`...)
	buf = strconv.AppendBool(buf, o.DisablePrefetch)
	buf = append(buf, `,"InterLayerReuse":`...)
	buf = strconv.AppendBool(buf, o.InterLayerReuse)
	buf = append(buf, `,"Strict":`...)
	buf = strconv.AppendBool(buf, o.Strict)
	buf = append(buf, '}')
	h := sha256.New()
	h.Write(canon)
	h.Write(buf)
	var sum [sha256.Size]byte
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], h.Sum(sum[:0]))
	return string(digest[:]), nil
}

// PlanModel runs the paper's memory-management technique on a network and
// returns the execution plan.
func PlanModel(n *Network, o PlanOptions) (*Plan, error) {
	return PlanModelCtx(context.Background(), n, o, nil)
}

// PlanModelCtx is PlanModel with cancellation and observation: the planner
// checks ctx between layers (Algorithm 1's outer loop), so a canceled
// context returns an error wrapping context.Canceled within one layer's
// work, and prog — when non-nil — receives one "plan" event per planned
// layer with the running traffic and latency totals. Failures carry the
// package's typed taxonomy: ErrBadModel for invalid inputs, ErrInfeasible
// (as *InfeasibleError, inside a *LayerError) when a layer does not fit.
//
// When the requested policy set is infeasible and o.Strict is false, the
// planner falls back instead of failing: it emits the baseline
// statically-split double-buffered plan, which always succeeds. (Relaxing
// prefetch first could never help: the requested sweep already tries every
// policy and fallback tiling without prefetch.) The plan is marked Degraded
// with the mode that produced it and the machine-readable chain of rungs
// that failed before it. Cancellation, invalid models and injected faults
// abort the ladder immediately; only genuine infeasibility descends a rung.
func PlanModelCtx(ctx context.Context, n *Network, o PlanOptions, prog Progress) (*Plan, error) {
	cfg, err := o.config()
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "plan")
	if span != nil {
		span.SetAttr("model", n.Name)
		span.SetAttr("layers", len(n.Layers))
		span.SetAttr("objective", o.Objective.String())
		// Only a homogeneous plan records its layers on the span, one
		// event per layer of the winning variant's walk. Het runs feed
		// only a caller's hook: recording their layers costs a served
		// plan about a quarter more CPU (DESIGN §12).
		if o.Homogeneous {
			prog = obs.SpanProgress(span, prog)
		}
		defer span.End()
	}
	plan, err := planLadder(ctx, cfg, n, o, prog)
	if span != nil {
		if err != nil {
			span.SetAttr("error", err.Error())
		} else if plan.Degraded {
			span.SetAttr("degraded_mode", plan.DegradedMode)
		}
	}
	return plan, err
}

// planLadder is PlanModelCtx after option resolution and instrumentation:
// the requested plan plus the degradation ladder.
func planLadder(ctx context.Context, cfg Config, n *Network, o PlanOptions, prog Progress) (*Plan, error) {
	pl := &core.Planner{
		Cfg:             cfg,
		Objective:       o.Objective,
		DisablePrefetch: o.DisablePrefetch,
		InterLayer:      o.InterLayerReuse,
	}
	plan, err := planRequested(ctx, pl, n, o.Homogeneous, prog)
	if err == nil {
		return plan, nil
	}
	if o.Strict || !errors.Is(err, smmerr.ErrInfeasible) {
		return nil, err
	}
	reasons := []core.DegradedReason{{Mode: "requested", Err: err.Error()}}

	// Rung 1: the baseline statically-split double-buffered plan. It never
	// reports infeasibility, so the ladder always terminates with a plan.
	plan, err = pl.BaselineFallbackCtx(ctx, n, prog)
	if err != nil {
		return nil, err
	}
	plan.MarkDegraded(core.DegradedBaseline, reasons)
	return plan, nil
}

// planRequested runs the planner exactly as the options ask (ladder rung 0).
func planRequested(ctx context.Context, pl *core.Planner, n *Network, homogeneous bool, prog Progress) (*Plan, error) {
	if homogeneous {
		return pl.BestHomogeneousCtx(ctx, n, prog)
	}
	return pl.HeterogeneousCtx(ctx, n, prog)
}

// BaselineSplits returns the paper's three fixed-partition baseline
// configurations (25-75, 50-50, 75-25) for a GLB of the given size.
func BaselineSplits(glbKB, widthBits int) []BaselineConfig {
	return scalesim.PaperSplits(glbKB, widthBits)
}

// SimulateBaseline runs the SCALE-Sim-style baseline over a network.
func SimulateBaseline(n *Network, cfg BaselineConfig) (*BaselineResult, error) {
	return scalesim.SimulateNetwork(n, cfg)
}

// SimulateBaselineCtx is SimulateBaseline with per-layer cancellation
// checks and "baseline" progress events.
func SimulateBaselineCtx(ctx context.Context, n *Network, cfg BaselineConfig, prog Progress) (*BaselineResult, error) {
	return scalesim.SimulateNetworkCtx(ctx, n, cfg, prog)
}

// CompileProgram lowers a plan into a serialisable command stream by
// dry-running every layer's tile schedule (see internal/program).
func CompileProgram(p *Plan) (*program.Program, error) { return program.Compile(p) }

// CompileProgramCtx is CompileProgram with per-layer cancellation checks
// and "compile" progress events.
func CompileProgramCtx(ctx context.Context, p *Plan, prog Progress) (*program.Program, error) {
	return program.CompileCtx(ctx, p, prog)
}

// Program is the command-stream artefact a compiler backend would consume.
type Program = program.Program

// SimulatePlan times a plan end-to-end on the ideal fixed-bandwidth
// backend, returning (measured cycles, planner-estimated cycles).
func SimulatePlan(p *Plan) (measured, estimated int64, err error) {
	return SimulatePlanCtx(context.Background(), p, nil)
}

// SimulatePlanCtx is SimulatePlan with cancellation (checked per layer and
// inside each layer's schedule walk) and "simulate" progress events.
func SimulatePlanCtx(ctx context.Context, p *Plan, prog Progress) (measured, estimated int64, err error) {
	ctx, span := obs.StartSpan(ctx, "simulate")
	if span != nil {
		span.SetAttr("model", p.Model)
		span.SetAttr("layers", len(p.Layers))
		prog = obs.SpanProgress(span, prog)
		defer span.End()
	}
	r, err := simulate.RunCtx(ctx, p, simulate.Options{}, prog)
	if err != nil {
		span.SetAttr("error", err.Error())
		return 0, 0, err
	}
	span.SetAttr("cycles", r.Cycles)
	return r.Cycles, r.EstimateCycles, nil
}

// DSEAccessElems runs the exhaustive tile-size search over a network and
// returns its optimum off-chip traffic — the reference the policy plans are
// measured against (internal/dse).
func DSEAccessElems(n *Network, cfg Config) (elems int64, feasible bool) {
	return dse.NetworkAccessElems(n, cfg)
}

// DSEAccessElemsCtx is DSEAccessElems with cancellation — checked per layer
// and per candidate filter-block size inside the grid search, so even a
// single large layer's sweep aborts promptly — and "dse" progress events.
func DSEAccessElemsCtx(ctx context.Context, n *Network, cfg Config, prog Progress) (elems int64, feasible bool, err error) {
	ctx, span := obs.StartSpan(ctx, "dse")
	if span != nil {
		span.SetAttr("model", n.Name)
		span.SetAttr("layers", len(n.Layers))
		prog = obs.SpanProgress(span, prog)
		defer span.End()
	}
	elems, feasible, err = dse.NetworkAccessElemsCtx(ctx, n, cfg, prog)
	span.SetAttr("feasible", feasible)
	return elems, feasible, err
}
