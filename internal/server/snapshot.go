package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	scratchmem "scratchmem"
	"scratchmem/internal/faultinject"
	"scratchmem/internal/model"
)

// SnapshotOptions carries the plan options a PlanDoc does not itself
// record; together with the document's config and objective they rebuild
// the exact PlanOptions — and therefore the exact PlanKey — of the
// original request.
type SnapshotOptions struct {
	Homogeneous     bool `json:"homogeneous,omitempty"`
	DisablePrefetch bool `json:"disable_prefetch,omitempty"`
	InterLayerReuse bool `json:"interlayer,omitempty"`
	Strict          bool `json:"strict,omitempty"`
}

// SnapshotRecord is one line of the GET /v1/cache/snapshot stream and the
// body of a POST /v1/peer/replicate: a self-contained, restorable
// description of one cached plan. The network travels in canonical JSON so
// the restorer recomputes the identical content hash. The wire form is
// json.Marshal's encoding of this type, written by appendRecord and read
// by readRecord, neither of which uses reflection.
type SnapshotRecord struct {
	Key     string              `json:"key"`
	Network json.RawMessage     `json:"network"`
	Options SnapshotOptions     `json:"options"`
	Doc     *scratchmem.PlanDoc `json:"doc"`
}

var (
	recordFields  = model.NewJSONFields("key", "network", "options", "doc")
	optionsFields = model.NewJSONFields("homogeneous", "disable_prefetch", "interlayer", "strict")
)

// appendRecord appends the SnapshotRecord of the cached plan pe under key,
// byte for byte as json.Marshal writes it: the network in its canonical
// form, the options that are set, and the document in its compact form,
// pe.body with the white space outside strings removed. Degraded plans have
// no record: their documents are not decision-reproducible, so they are
// recomputed, never copied.
func appendRecord(dst []byte, key string, pe *planEntry) ([]byte, error) {
	if pe.net == nil {
		return dst, fmt.Errorf("entry for %s has no network", key)
	}
	if pe.plan.Degraded {
		return dst, fmt.Errorf("plan for %s is degraded", key)
	}
	dst = model.AppendJSONString(append(dst, `{"key":`...), key)
	dst = model.AppendCanonicalJSON(append(dst, `,"network":`...), pe.net)
	dst = append(dst, `,"options":{`...)
	sep := ""
	for i, set := range [...]bool{pe.opts.Homogeneous, pe.opts.DisablePrefetch, pe.opts.InterLayerReuse, pe.opts.Strict} {
		if set {
			dst = append(dst, sep+`"`+optionsFields.Name(i)+`":true`...)
			sep = ","
		}
	}
	dst = model.AppendCompact(append(dst, `},"doc":`...), pe.body)
	return append(dst, '}'), nil
}

// record is a SnapshotRecord as readRecord decodes it: the network is
// decoded in the same pass, while the document stays in its wire bytes
// until restore verifies them.
type record struct {
	key    string
	net    *scratchmem.Network
	canon  []byte // the network's canonical JSON, which the key hashes
	netErr error
	opts   SnapshotOptions
	doc    []byte
	err    error // why the value is not a record
}

// readRecord reads the SnapshotRecord at rd's position, a value of data.
// The record is strict, as the plan routes' envelopes are: an unknown or
// repeated member, or one of the wrong JSON type, is a 400-class error in
// rec.err. A syntax error stays in rd.
func readRecord(rd *model.JSONReader, data []byte) *record {
	rec := &record{}
	rec.err = members(rd, recordFields, func(f int) error {
		if f != 1 && rd.Null() {
			return nil // "network": null is a network, and an invalid one
		}
		switch f {
		case 0:
			var ok bool
			if rec.key, ok = rd.String(); !ok {
				return envelopeError("key", "a string")
			}
		case 1:
			rec.net, rec.canon, rec.netErr = model.DecodeNetwork(rd)
		case 2:
			o := &rec.opts
			return members(rd, optionsFields, func(f int) error {
				if rd.Null() {
					return nil
				}
				v, ok := rd.Bool()
				if !ok {
					return envelopeError(optionsFields.Name(f), "a boolean")
				}
				switch f {
				case 0:
					o.Homogeneous = v
				case 1:
					o.DisablePrefetch = v
				case 2:
					o.InterLayerReuse = v
				case 3:
					o.Strict = v
				}
				return nil
			})
		case 3:
			rd.Next()
			start := rd.Offset()
			rd.Skip()
			rec.doc = data[start:rd.Offset()]
		}
		return nil
	})
	return rec
}

// restore verifies a record and builds its cache entry. The document must
// be this build's compact rendering of the plan its decisions rebuild for
// the record's network (scratchmem.VerifyCompactPlanDocument), and the
// network and options must hash back to the record's key, so a stale,
// foreign or tampered record is refused, never trusted.
func (rec *record) restore() (*planEntry, string, error) {
	switch {
	case rec.err != nil:
		return nil, "", rec.err
	case rec.netErr != nil:
		return nil, "", fmt.Errorf("network: %v", rec.netErr)
	case rec.net == nil:
		return nil, "", fmt.Errorf("record has no network")
	case rec.doc == nil:
		return nil, "", fmt.Errorf("record has no plan document")
	}
	p, body, err := scratchmem.VerifyCompactPlanDocument(rec.net, rec.doc)
	if err != nil {
		return nil, "", err
	}
	opts := scratchmem.PlanOptions{
		Config:          p.Cfg,
		Objective:       p.Objective,
		Homogeneous:     rec.opts.Homogeneous,
		DisablePrefetch: rec.opts.DisablePrefetch,
		InterLayerReuse: rec.opts.InterLayerReuse,
		Strict:          rec.opts.Strict,
	}
	key, err := scratchmem.PlanKeyCanonical(rec.canon, opts)
	if err != nil {
		return nil, "", err
	}
	if key != rec.key {
		return nil, "", fmt.Errorf("content hash %s does not match record key %s", key, rec.key)
	}
	return &planEntry{plan: p, body: body, net: rec.net, opts: opts}, key, nil
}

// handleSnapshot streams the cached plans as newline-delimited records,
// most recently used first. Only plan entries travel — simulation and DSE
// results are cheap to recompute and not rehydratable — and degraded plans
// are skipped because their documents are explicitly not
// decision-reproducible.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := faultinject.Hit("cluster.snapshot"); err != nil {
		s.fail(w, err)
		return
	}
	var stream []byte
	n := 0
	for _, e := range s.cache.Snapshot() {
		key, ok := strings.CutPrefix(e.Key, "plan:")
		if !ok {
			continue
		}
		pe, ok := e.Val.(*planEntry)
		if !ok {
			continue
		}
		if rec, err := appendRecord(stream, key, pe); err == nil {
			stream = append(rec, '\n')
			n++
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-SMM-Snapshot-Entries", strconv.Itoa(n))
	w.Write(stream)
}

// RestoreSnapshot replays a snapshot stream into the local cache (the
// smm-serve -warm-from boot path). Every record is verified before it is
// trusted (record.restore), so a stale or foreign snapshot degrades to
// skipped records, never to wrong answers; a stream that is not JSON
// restores nothing. Records stream most-recently-used first, so they are
// inserted in reverse to reproduce the source's LRU order.
func (s *Server) RestoreSnapshot(r io.Reader) (added, skipped int, err error) {
	return s.restoreStream(r, false)
}

// RestoreSnapshotMissing is RestoreSnapshot for the periodic re-warm loop:
// records whose key is already cached are left untouched (no LRU
// promotion, no overwrite of a fresher local copy), so a rewarm tick
// against an unchanged peer is free.
func (s *Server) RestoreSnapshotMissing(r io.Reader) (added, skipped int, err error) {
	return s.restoreStream(r, true)
}

func (s *Server) restoreStream(r io.Reader, onlyMissing bool) (added, skipped int, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, 0, fmt.Errorf("server: snapshot stream: %v", err)
	}
	var recs []*record
	rd := model.NewJSONReader(data)
	for rd.Next(); rd.Offset() < len(data); rd.Next() {
		// Find the record's end first, so a record the strict decode stops
		// reading early cannot derail the ones after it.
		start := rd.Offset()
		rd.Skip()
		if err := rd.Err(); err != nil {
			return 0, 0, fmt.Errorf("server: snapshot stream: %v", err)
		}
		value := data[start:rd.Offset()]
		recs = append(recs, readRecord(model.NewJSONReader(value), value))
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if onlyMissing && s.local.Contains("plan:"+recs[i].key) {
			continue
		}
		entry, key, rerr := recs[i].restore()
		if rerr != nil {
			skipped++
			s.log.Warn("snapshot record skipped", "key", recs[i].key, "error", rerr)
			continue
		}
		s.local.Put("plan:"+key, entry)
		added++
	}
	return added, skipped, nil
}
