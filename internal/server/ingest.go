package server

import (
	"fmt"
	"io"
	"net/http"

	scratchmem "scratchmem"
	"scratchmem/internal/model"
	"scratchmem/internal/smmerr"
)

// The ingest seam: every route that takes plan requests (/v1/plan,
// /v1/peer/fill, /v1/simulate, /v1/dse and each item of /v1/plan/batch)
// reads its body with readBody and hands it to ingest or ingestBatch. One
// pass over the bytes decodes the envelope together with every inline
// network (model.DecodeNetwork), then resolves the planner options and
// computes the plan key. Its cost follows what changed within a body: a
// network's layer objects that repeat the previous network's are reused,
// not decoded again, the key hashes the canonical bytes the decoder
// assembled from per-layer encodings, and a "model" resolves to the
// builtin's shared network (model.SharedBuiltin). The accept set is
// encoding/json's:
//
//   - The envelope (PlanRequest, "config", "baseline", "requests") is
//     strict: an unknown member is a 400. The inline network is lenient:
//     unknown members are skipped.
//   - Member names match exactly, else case-insensitively under Unicode
//     folding. null leaves a member unset, but "network": null is a network
//     and an invalid one.
//   - Integers are integer literals within int64: not 1e1, not 8.0.
//   - Only the first JSON value is read; bytes after it are ignored.
//   - In a batch, a request that cannot be planned (a bad inline network, an
//     unknown model) fails alone. A syntax error anywhere, or an envelope
//     error in any item, fails the whole body.
//
// One rule is stricter than encoding/json's: a member named twice, in the
// envelope or in a network, is a 400 (model.ErrDuplicateMember).

// planInput is one plan request as the seam resolves it.
type planInput struct {
	// req is the request's wire form, which a peer fill forwards to the
	// key's owner. req.Network is a sub-slice of the body, so the body
	// lives as long as the planInput.
	req      PlanRequest
	baseline *BaselineSpec // /v1/simulate only
	net      *scratchmem.Network
	opts     scratchmem.PlanOptions
	key      string
	// err is why a batch item cannot be planned; the batch answers it in
	// the item.
	err    error
	netErr error  // the inline network's decode error, until resolve
	canon  []byte // the inline network's canonical JSON, until resolve keys it
}

// bodyKind selects the envelope a body is decoded against.
type bodyKind int

const (
	planBody     bodyKind = iota // PlanRequest, keyed by every plan option
	simulateBody                 // SimulateRequest: PlanRequest plus "baseline"
	dseBody                      // PlanRequest, keyed by network and config only
)

// maxBodyPrealloc caps how much of a declared Content-Length readBody
// allocates before the bytes arrive, so a client cannot make the server
// commit maxBodyBytes per connection with a header alone.
const maxBodyPrealloc = 1 << 20

// readBody reads a request body under maxBodyBytes into a buffer sized from
// Content-Length, so a body is read without the doubling copies of
// io.ReadAll. The whole body is in hand before decoding starts, so
// model.DecodeNetwork can match a layer object against the previous
// network's by comparing bytes in place: its table points into this buffer
// and lives only as long as the body's reader. The buffer is never pooled:
// sub-slices of it outlive the request in the resolve memo.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	size := int64(512)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, maxBodyPrealloc) + 1 // +1: room to read io.EOF
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, bodyError(err)
		}
	}
}

// bodyError marks a body that cannot be decoded as a client error.
func bodyError(err error) error {
	return smmerr.BadModel(fmt.Errorf("invalid request body: %w", err))
}

// envelopeError reports a member of the wrong JSON type.
func envelopeError(member, want string) error {
	return bodyError(fmt.Errorf("%q must be %s", member, want))
}

var (
	planFields     = model.NewJSONFields("model", "network", "glb_kb", "config", "objective", "homogeneous", "disable_prefetch", "interlayer", "strict")
	simulateFields = model.NewJSONFields("model", "network", "glb_kb", "config", "objective", "homogeneous", "disable_prefetch", "interlayer", "strict", "baseline")
	configFields   = model.NewJSONFields("glb_bytes", "data_width_bits", "ops_per_cycle", "dram_bytes_per_cycle", "include_padding", "batch")
	baseFields     = model.NewJSONFields("split_percent")
	batchFields    = model.NewJSONFields("requests")
)

// Indexes into planFields and simulateFields.
const (
	fModel = iota
	fNetwork
	fGLB
	fConfig
	fObjective
	fHomogeneous
	fDisablePrefetch
	fInterLayer
	fStrict
	fBaseline
)

// ingest decodes and resolves a single-request body into in. Any error is
// the request's 400: a body that does not decode, or a request that does
// not resolve.
func ingest(in *planInput, body []byte, kind bodyKind) error {
	rd := model.NewJSONReader(body)
	err := decodeRequest(rd, body, in, kind == simulateBody)
	if rd.Err() != nil {
		return bodyError(rd.Err())
	}
	if err != nil {
		return err
	}
	return in.resolve(kind)
}

// ingestRequest reads a /v1/simulate or /v1/dse body and resolves it into in.
func ingestRequest(w http.ResponseWriter, r *http.Request, in *planInput, kind bodyKind) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	return ingest(in, body, kind)
}

// ingestBatch decodes a /v1/plan/batch body and resolves every item. The
// error fails the whole body; an item that cannot be planned carries its
// own err. Items are resolved as they are read, so each inline network's
// canonical bytes are dropped as soon as its key exists. All of them are
// read on one JSONReader, which lets a network reuse the layers it repeats
// from the one before it (model.DecodeNetwork).
func ingestBatch(body []byte) ([]planInput, error) {
	rd := model.NewJSONReader(body)
	var items []planInput
	err := members(rd, batchFields, func(int) error {
		if rd.Null() {
			return nil
		}
		if !rd.Array() {
			return envelopeError("requests", "an array")
		}
		for rd.Elem() {
			if len(items) == maxBatchItems {
				return badRequestf("batch exceeds the %d-item limit", maxBatchItems)
			}
			items = append(items, planInput{})
			in := &items[len(items)-1]
			if err := decodeRequest(rd, body, in, false); err != nil {
				return err
			}
			in.err = in.resolve(planBody)
		}
		return nil
	})
	if rd.Err() != nil {
		return nil, bodyError(rd.Err())
	}
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, badRequestf("batch needs at least one request")
	}
	return items, nil
}

// members reads the strict object at rd's position, calling member with
// each member's index in fields once its value is next; member must
// consume that value, null included. A null object has no members. An
// unknown or repeated member is an error.
func members(rd *model.JSONReader, fields *model.JSONFields, member func(int) error) error {
	if rd.Null() {
		return nil
	}
	if !rd.Object() {
		return bodyError(fmt.Errorf("expected a JSON object"))
	}
	var seen uint
	f := -1
	for key, ok := rd.Member(); ok; key, ok = rd.Member() {
		f = fields.Index(key, f+1)
		if f < 0 {
			return bodyError(fmt.Errorf("unknown field %q", key))
		}
		if seen&(1<<f) != 0 {
			return bodyError(fmt.Errorf("%w %q", model.ErrDuplicateMember, key))
		}
		seen |= 1 << f
		if err := member(f); err != nil {
			return err
		}
	}
	return nil
}

// decodeRequest reads one PlanRequest (SimulateRequest when baseline is
// allowed) at rd's position into in. The error is an envelope error; an
// inline network that does not decode is left in in.netErr.
func decodeRequest(rd *model.JSONReader, body []byte, in *planInput, baseline bool) error {
	req := &in.req
	fields := planFields
	if baseline {
		fields = simulateFields
	}
	return members(rd, fields, func(f int) error {
		if f != fNetwork && rd.Null() {
			return nil // "network": null is a network, and an invalid one
		}
		var ok bool
		switch f {
		case fModel:
			req.Model, ok = rd.String()
		case fNetwork:
			rd.Next()
			start := rd.Offset()
			in.net, in.canon, in.netErr = model.DecodeNetwork(rd)
			req.Network = body[start:rd.Offset()]
			return nil
		case fGLB:
			var v int64
			v, ok = rd.Int()
			req.GLBKiloBytes = int(v)
		case fConfig:
			req.Config = &scratchmem.ConfigDoc{}
			return decodeConfig(rd, req.Config)
		case fObjective:
			req.Objective, ok = rd.String()
		case fHomogeneous:
			req.Homogeneous, ok = rd.Bool()
		case fDisablePrefetch:
			req.DisablePrefetch, ok = rd.Bool()
		case fInterLayer:
			req.InterLayerReuse, ok = rd.Bool()
		case fStrict:
			req.Strict, ok = rd.Bool()
		case fBaseline:
			in.baseline = &BaselineSpec{}
			return members(rd, baseFields, func(int) error {
				if rd.Null() {
					return nil
				}
				v, ok := rd.Int()
				if !ok {
					return envelopeError("split_percent", "an integer")
				}
				in.baseline.SplitPercent = int(v)
				return nil
			})
		}
		if !ok {
			return envelopeError(fields.Name(f), planFieldTypes[f])
		}
		return nil
	})
}

// planFieldTypes names the JSON type of each scalar member of planFields.
var planFieldTypes = [...]string{fModel: "a string", fGLB: "an integer", fObjective: "a string",
	fHomogeneous: "a boolean", fDisablePrefetch: "a boolean", fInterLayer: "a boolean", fStrict: "a boolean"}

// decodeConfig reads the strict "config" object into c.
func decodeConfig(rd *model.JSONReader, c *scratchmem.ConfigDoc) error {
	return members(rd, configFields, func(f int) error {
		if rd.Null() {
			return nil
		}
		if f == 4 {
			v, ok := rd.Bool()
			if !ok {
				return envelopeError("include_padding", "a boolean")
			}
			c.IncludePadding = v
			return nil
		}
		v, ok := rd.Int()
		if !ok {
			return envelopeError(configFields.Name(f), "an integer")
		}
		switch f {
		case 0:
			c.GLBBytes = v
		case 1:
			c.DataWidthBits = int(v)
		case 2:
			c.OpsPerCycle = int(v)
		case 3:
			c.DRAMBytesPerCycle = int(v)
		case 5:
			c.Batch = int(v)
		}
		return nil
	})
}

// resolve turns a decoded request into the planner's inputs and its key,
// or reports why it cannot be planned. A "model" resolves to the builtin's
// shared network (model.SharedBuiltin), which the server only reads.
func (in *planInput) resolve(kind bodyKind) error {
	canon := in.canon
	in.canon = nil
	pr := &in.req
	if (pr.Model == "") == (len(pr.Network) == 0) {
		return badRequestf("exactly one of \"model\" or \"network\" is required")
	}
	var err error
	if pr.Model != "" {
		if in.net, canon, err = model.SharedBuiltin(pr.Model); err != nil {
			return badRequestf("%v", err)
		}
	} else if in.netErr != nil {
		return smmerr.BadModel(fmt.Errorf("invalid \"network\": %w", in.netErr))
	}
	opts := &in.opts
	switch pr.Objective {
	case "", "accesses":
		opts.Objective = scratchmem.MinAccesses
	case "latency":
		opts.Objective = scratchmem.MinLatency
	default:
		return badRequestf("unknown objective %q (want accesses or latency)", pr.Objective)
	}
	if pr.Config != nil {
		opts.Config = pr.Config.ToConfig()
	} else if pr.GLBKiloBytes > 0 {
		opts.Config = scratchmem.DefaultConfig(pr.GLBKiloBytes)
	} else {
		return badRequestf("one of \"glb_kb\" or \"config\" is required")
	}
	if err := opts.Config.Validate(); err != nil {
		return badRequestf("invalid config: %v", err)
	}
	opts.Homogeneous = pr.Homogeneous
	opts.DisablePrefetch = pr.DisablePrefetch
	opts.InterLayerReuse = pr.InterLayerReuse
	opts.Strict = pr.Strict
	keyOpts := *opts
	if kind == dseBody {
		// Only (network, config) matter to the search; strip the
		// plan-shaping options so equivalent DSE requests share a key.
		keyOpts = scratchmem.PlanOptions{Config: opts.Config}
	}
	in.key, err = scratchmem.PlanKeyCanonical(canon, keyOpts)
	return err
}
