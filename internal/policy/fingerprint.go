// Network fingerprints for differential planning: a network's fingerprint
// is its per-layer shape-signature chain ([]LayerKey). Two requests whose
// chains share a prefix/suffix under identical planner knobs can share the
// unchanged layers' planning work (internal/core's checkpoint resume).
package policy

import "scratchmem/internal/layer"

// LayerKey is the canonical shape identity of a layer: every geometric
// field the estimators read, and nothing else — in particular not the
// name. The estimators are pure functions of (shape, options, config), so
// identically-shaped layers (ResNet's repeated basic blocks, MobileNet's
// depthwise stacks) share one key and one planning decision.
type LayerKey struct {
	Kind                        layer.Type
	IH, IW, CI, FH, FW, F, S, P int
}

// KeyOf extracts the shape key of l.
func KeyOf(l *layer.Layer) LayerKey {
	return LayerKey{Kind: l.Kind, IH: l.IH, IW: l.IW, CI: l.CI,
		FH: l.FH, FW: l.FW, F: l.F, S: l.S, P: l.P}
}

// ChainOf returns the per-layer shape-signature chain of layers. Names are
// deliberately absent from LayerKey — the estimators never read them — so
// renamed copies of a network fingerprint identically.
func ChainOf(layers []layer.Layer) []LayerKey {
	out := make([]LayerKey, len(layers))
	for i := range layers {
		out[i] = KeyOf(&layers[i])
	}
	return out
}

// CommonPrefix returns the number of leading positions where a and b carry
// the same shape key.
func CommonPrefix(a, b []LayerKey) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// CommonSuffix is CommonPrefix measured from the tail ends.
func CommonSuffix(a, b []LayerKey) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}
