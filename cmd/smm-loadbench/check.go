package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	scratchmem "scratchmem"
	"scratchmem/internal/model"
	"scratchmem/internal/server"
)

// decodeStrict decodes a request body the way the server does: unknown
// fields are an error.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// resolve turns a wire request into planner inputs exactly as the server
// does for the fields the workloads send: a builtin name or an inline
// network, glb_kb, objective, homogeneous and interlayer.
func resolve(pr *server.PlanRequest) (*scratchmem.Network, scratchmem.PlanOptions, error) {
	var opts scratchmem.PlanOptions
	var net *scratchmem.Network
	var err error
	if pr.Model != "" {
		net, err = scratchmem.BuiltinModel(pr.Model)
	} else {
		net, err = model.ReadJSON(bytes.NewReader(pr.Network))
	}
	if err != nil {
		return nil, opts, err
	}
	switch pr.Objective {
	case "", "accesses":
		opts.Objective = scratchmem.MinAccesses
	case "latency":
		opts.Objective = scratchmem.MinLatency
	default:
		return nil, opts, fmt.Errorf("unknown objective %q", pr.Objective)
	}
	opts.Config = scratchmem.DefaultConfig(pr.GLBKiloBytes)
	if err := opts.Config.Validate(); err != nil {
		return nil, opts, err
	}
	opts.Homogeneous = pr.Homogeneous
	opts.InterLayerReuse = pr.InterLayerReuse
	return net, opts, nil
}

// checker compares delivered plan documents with in-process references:
// scratchmem.PlanModel with fresh state, rendered by MarshalIndent.
type checker struct {
	bases []*baseNet
	refs  map[string][]byte // spec id → compacted reference document
}

func newChecker(bases []*baseNet) *checker {
	return &checker{bases: bases, refs: make(map[string][]byte)}
}

func (c *checker) reference(s planSpec) ([]byte, error) {
	if ref, ok := c.refs[s.id()]; ok {
		return ref, nil
	}
	var pr server.PlanRequest
	if err := decodeStrict(appendPlanJSON(nil, s, c.bases), &pr); err != nil {
		return nil, fmt.Errorf("%s: %w", s.id(), err)
	}
	net, opts, err := resolve(&pr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.id(), err)
	}
	p, err := scratchmem.PlanModel(net, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.id(), err)
	}
	doc, err := scratchmem.PlanDocument(p).MarshalIndent()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, doc); err != nil {
		return nil, err
	}
	c.refs[s.id()] = buf.Bytes()
	return buf.Bytes(), nil
}

// checkResult counts one round's document checks.
type checkResult struct {
	checked    int
	mismatches int
	first      string // the first mismatch, described
}

// check verifies every delivered document of the workload's check
// requests. Requests or batch items that failed are already counted as
// failures and are skipped here.
func (c *checker) check(w *workload, kept map[int][]byte) (checkResult, error) {
	var res checkResult
	mismatch := func(s planSpec, why string) {
		res.mismatches++
		if res.first == "" {
			res.first = s.id() + ": " + why
		}
	}
	var buf bytes.Buffer
	for _, i := range w.checks {
		body, ok := kept[i]
		if !ok {
			continue
		}
		r := &w.reqs[i]
		docs := []json.RawMessage{body}
		if r.batch {
			var br server.BatchResponse
			if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != len(r.specs) {
				for _, s := range r.specs {
					mismatch(s, fmt.Sprintf("undecodable batch response (%d results, err %v)", len(br.Results), err))
				}
				continue
			}
			docs = docs[:0]
			for _, it := range br.Results {
				if it.Status != http.StatusOK {
					it.Plan = nil
				}
				docs = append(docs, it.Plan)
			}
		}
		for k, s := range r.specs {
			if docs[k] == nil {
				continue
			}
			ref, err := c.reference(s)
			if err != nil {
				return res, err
			}
			res.checked++
			buf.Reset()
			if err := json.Compact(&buf, docs[k]); err != nil {
				mismatch(s, "document is not JSON: "+err.Error())
			} else if !bytes.Equal(buf.Bytes(), ref) {
				mismatch(s, "document differs from the in-process reference")
			}
		}
	}
	return res, nil
}
