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
