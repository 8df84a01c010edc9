package model

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"scratchmem/internal/layer"
	"scratchmem/internal/smmerr"
)

// The JSON form of a network is
//
//	{"name": ..., "layers": [{"name", "type", "ih", "iw", "ci", "fh", "fw", "f", "s", "p"}, ...]}
//
// with the members in that order. DecodeNetwork reads it in one pass with
// no reflection; appendNetwork writes it, byte for byte as encoding/json
// would encode the equivalent struct, so every serialisation of the same
// network is identical: the property the content-addressed cache keys
// depend on.

var (
	networkFields = NewJSONFields("name", "layers")
	layerFields   = NewJSONFields("name", "type", "ih", "iw", "ci", "fh", "fw", "f", "s", "p")
)

// DecodeNetwork reads the network value at rd's position and validates it.
// The decode is lenient the way encoding/json is with the equivalent
// struct: unknown members are skipped, names match case-insensitively, and
// null leaves a member unset. Two differences are deliberate: a member named
// twice is an error wrapping ErrDuplicateMember, and layers are built only
// through layer.New and Network.Validate.
//
// A syntax error stays in rd (rd.Err) and is also returned. Any other error
// means the value is well-formed JSON but not a valid network; rd is then
// positioned after the value, so a caller can carry on reading.
func DecodeNetwork(rd *JSONReader) (*Network, error) {
	// Layers are read into records first and built once the network ends,
	// so the network gets exactly-sized layers and one string holding every
	// layer name. The records live in rd, reused by every network of its
	// document.
	d := networkDecoder{rd: rd, raw: rd.layers[:0], names: rd.names[:0]}
	n := d.network()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if d.err == nil {
		n.Layers = d.build()
	}
	rd.layers, rd.names = d.raw, d.names
	if d.err != nil {
		return nil, d.err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// networkDecoder keeps the first error of one network's decode. After it,
// values are still consumed, so the rest of the document is validated.
type networkDecoder struct {
	rd    *JSONReader
	err   error
	raw   []rawLayer // the elements of "layers", as read
	names []byte     // every layer name, back to back
}

// rawLayer is one element of "layers" before layer.New sees it.
type rawLayer struct {
	name [2]int     // its name is names[name[0]:name[1]]
	kind layer.Type // -1 when the type names no layer type
	typ  string     // the type as written, kept only when kind is -1
	dims [8]int64   // ih, iw, ci, fh, fw, f, s, p
}

func (d *networkDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// duplicate records a repeated member. It replaces an earlier error: with
// encoding/json the repeat could have overwritten the value that caused it,
// so the repeat is the reason the network is refused.
func (d *networkDecoder) duplicate(where string, key []byte) {
	if !errors.Is(d.err, ErrDuplicateMember) {
		d.err = fmt.Errorf("model: %s%w %q", where, ErrDuplicateMember, key)
	}
}

func (d *networkDecoder) network() *Network {
	n := &Network{}
	if d.rd.Null() {
		return n
	}
	if !d.rd.Object() {
		d.fail(errors.New("model: a network must be a JSON object"))
		return n
	}
	var seen uint
	i := -1
	for key, ok := d.rd.Member(); ok; key, ok = d.rd.Member() {
		i = networkFields.Index(key, i+1)
		if i < 0 {
			d.rd.Skip()
			continue
		}
		if seen&(1<<i) != 0 {
			d.duplicate("", key)
			d.rd.Skip()
			continue
		}
		seen |= 1 << i
		if d.rd.Null() {
			continue
		}
		if i == 0 {
			if s, ok := d.rd.String(); ok {
				n.Name = s
			} else {
				d.fail(errors.New(`model: network "name" must be a string`))
			}
			continue
		}
		if !d.rd.Array() {
			d.fail(errors.New(`model: network "layers" must be an array`))
			continue
		}
		for d.rd.Elem() {
			d.layer()
		}
	}
	return n
}

// layer reads one element of "layers"; null reads as a layer with every
// member unset, which layer.ParseType rejects.
func (d *networkDecoder) layer() {
	idx := len(d.raw)
	d.raw = append(d.raw, rawLayer{name: [2]int{len(d.names), len(d.names)}, kind: -1})
	r := &d.raw[idx]
	if !d.rd.Null() {
		if !d.rd.Object() {
			d.fail(fmt.Errorf("model: layer %d must be a JSON object", idx+1))
			return
		}
		var seen uint
		i := -1
		for key, ok := d.rd.Member(); ok; key, ok = d.rd.Member() {
			i = layerFields.Index(key, i+1)
			if i < 0 {
				d.rd.Skip()
				continue
			}
			if seen&(1<<i) != 0 {
				d.duplicate(fmt.Sprintf("layer %d: ", idx+1), key)
				d.rd.Skip()
				continue
			}
			seen |= 1 << i
			if d.rd.Null() {
				continue
			}
			ok := true
			switch i {
			case 0:
				var b []byte
				if b, ok = d.rd.Bytes(); ok {
					r.name = [2]int{len(d.names), len(d.names) + len(b)}
					d.names = append(d.names, b...)
				}
			case 1:
				var b []byte
				if b, ok = d.rd.Bytes(); ok {
					if r.kind = layerType(b); r.kind < 0 {
						r.typ = string(b)
					}
				}
			default:
				r.dims[i-2], ok = d.rd.Int()
			}
			if !ok {
				d.fail(fmt.Errorf("model: layer %d: %q has the wrong JSON type", idx+1, layerFields.names[i]))
			}
		}
	}
}

// build turns the records into layers, through layer.New, in order.
func (d *networkDecoder) build() []layer.Layer {
	names := string(d.names)
	layers := make([]layer.Layer, len(d.raw))
	for i := range d.raw {
		r := &d.raw[i]
		name := names[r.name[0]:r.name[1]]
		if r.kind < 0 {
			_, err := layer.ParseType(r.typ)
			d.fail(fmt.Errorf("model: layer %d (%s): %w", i+1, name, err))
			return nil
		}
		l, err := layer.New(name, r.kind, int(r.dims[0]), int(r.dims[1]), int(r.dims[2]), int(r.dims[3]),
			int(r.dims[4]), int(r.dims[5]), int(r.dims[6]), int(r.dims[7]))
		if err != nil {
			d.fail(err)
			return nil
		}
		layers[i] = l
	}
	return layers
}

// layerType is layer.ParseType on bytes, without allocating: -1 when b
// names no layer type.
func layerType(b []byte) layer.Type {
	for _, t := range []layer.Type{layer.Conv, layer.DepthwiseConv, layer.PointwiseConv, layer.FullyConnected, layer.Projection} {
		if string(b) == t.String() {
			return t
		}
	}
	return -1
}

// AppendCanonicalJSON appends the compact canonical serialisation of a
// network (CanonicalJSON) to dst.
func AppendCanonicalJSON(dst []byte, n *Network) []byte {
	return appendNetwork(dst, n, compactLayout)
}

// jsonLayout holds the constant bytes of one JSON layout of a network,
// everything between its values.
type jsonLayout struct {
	head, layers, layer, typ string
	dims                     [8]string // before ih, iw, ci, fh, fw, f, s, p
	layerEnd, end, emptyEnd  string
}

// newJSONLayout builds the compact layout (indent "") or json.Encoder's
// SetIndent("", indent) layout.
func newJSONLayout(indent string) *jsonLayout {
	nl := func(depth int) string { // a newline and depth indents, or nothing
		if indent == "" {
			return ""
		}
		return "\n" + strings.Repeat(indent, depth)
	}
	colon := ":"
	if indent != "" {
		colon = ": "
	}
	member := func(depth int, name string) string { return nl(depth) + `"` + name + `"` + colon }
	l := &jsonLayout{
		head:     "{" + member(1, "name"),
		layers:   "," + member(1, "layers") + "[",
		layer:    nl(2) + "{" + member(3, "name"),
		typ:      "," + member(3, "type"),
		layerEnd: nl(2) + "}",
		end:      nl(1) + "]" + nl(0) + "}",
		emptyEnd: "]" + nl(0) + "}",
	}
	for i := range l.dims {
		l.dims[i] = "," + member(3, layerFields.Name(i+2))
	}
	return l
}

var compactLayout, indentedLayout = newJSONLayout(""), newJSONLayout("  ")

// appendNetwork appends the network's JSON form in layout l, escaping
// strings exactly as encoding/json does.
func appendNetwork(dst []byte, n *Network, l *jsonLayout) []byte {
	dst = append(dst, l.head...)
	dst = AppendJSONString(dst, n.Name)
	dst = append(dst, l.layers...)
	for i := range n.Layers {
		ly := &n.Layers[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.layer...)
		dst = AppendJSONString(dst, ly.Name)
		dst = append(dst, l.typ...)
		dst = AppendJSONString(dst, ly.Kind.String())
		for j, v := range [8]int{ly.IH, ly.IW, ly.CI, ly.FH, ly.FW, ly.F, ly.S, ly.P} {
			dst = append(dst, l.dims[j]...)
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, l.layerEnd...)
	}
	if len(n.Layers) == 0 {
		return append(dst, l.emptyEnd...)
	}
	return append(dst, l.end...)
}

// AppendJSONString appends s as json.Marshal encodes a string: HTML
// characters, U+2028 and U+2029 escaped, and each invalid UTF-8 byte
// written as \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		rr, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case rr == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case rr == '\u2028' || rr == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[rr&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendCompact appends the JSON text src with the white space outside its
// strings removed. For the output of this module's encoders, indented or
// not, that is json.Compact's result; unlike json.Compact it does not
// validate, so src must be well-formed JSON.
func AppendCompact(dst, src []byte) []byte {
	dst = slices.Grow(dst, len(src))
	start := 0
	for i := 0; i < len(src); {
		switch compactClass[src[i]] {
		case 0:
			i++
		case '"':
			for i++; i < len(src) && src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
			i++
		default: // a run of white space
			dst = append(dst, src[start:i]...)
			for i++; i < len(src) && compactClass[src[i]] == ' '; i++ {
			}
			start = i
		}
	}
	return append(dst, src[start:]...)
}

// compactClass maps the bytes AppendCompact stops at to a class: '"' opens
// a string, ' ' is white space, and 0 is every other byte.
var compactClass = [256]byte{'"': '"', ' ': ' ', '\t': ' ', '\n': ' ', '\r': ' '}

// WriteJSON serialises the network as indented JSON.
func (n *Network) WriteJSON(w io.Writer) error {
	_, err := w.Write(append(appendNetwork(nil, n, indentedLayout), '\n'))
	return err
}

// CanonicalJSON returns the compact deterministic serialisation of a
// network: the same network always yields the same bytes, and a network
// reconstructed from those bytes serialises back to them. Content-addressed
// cache keys (scratchmem.PlanKey) hash this form.
func CanonicalJSON(n *Network) ([]byte, error) {
	return AppendCanonicalJSON(nil, n), nil
}

// ReadJSON parses a network from the first JSON value r yields (DecodeNetwork).
func ReadJSON(r io.Reader) (*Network, error) {
	var data []byte
	var err error
	switch sized := r.(type) {
	case *bytes.Reader: // read in one copy, not io.ReadAll's doublings
		data = make([]byte, sized.Len())
		_, err = io.ReadFull(r, data)
	case *strings.Reader:
		data = make([]byte, sized.Len())
		_, err = io.ReadFull(r, data)
	default:
		data, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("model: reading JSON: %w", err)
	}
	rd := NewJSONReader(data)
	// Size DecodeNetwork's scratch from the input: a compact layer takes at
	// least 64 bytes, so a document cannot hold more layers than that.
	rd.layers = make([]rawLayer, 0, len(data)/64+1)
	rd.names = make([]byte, 0, len(data)/8)
	n, err := DecodeNetwork(rd)
	if rd.Err() != nil {
		return nil, fmt.Errorf("model: decoding JSON: %w", err)
	}
	return n, err
}

// topologyHeader is the SCALE-Sim v2 topology CSV header. The trailing
// empty column mirrors SCALE-Sim's own files, which end every row with a
// comma.
var topologyHeader = []string{
	"Layer name", "IFMAP Height", "IFMAP Width", "Filter Height", "Filter Width",
	"Channels", "Num Filter", "Strides", "",
}

// WriteTopologyCSV serialises the network in the SCALE-Sim topology format.
// The format has no padding or layer-type columns; depth-wise layers are
// written with Num Filter = 1 and padding information is lost (SCALE-Sim
// itself ignores padding, as the paper notes).
func (n *Network) WriteTopologyCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(topologyHeader); err != nil {
		return err
	}
	for _, l := range n.Layers {
		rec := []string{
			l.Name,
			strconv.Itoa(l.IH), strconv.Itoa(l.IW),
			strconv.Itoa(l.FH), strconv.Itoa(l.FW),
			strconv.Itoa(l.CI), strconv.Itoa(l.F), strconv.Itoa(l.S), "",
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTopologyCSV parses a SCALE-Sim topology CSV. Because the format
// carries no type or padding column, every layer is read as a dense
// convolution with zero padding; 1x1 layers become point-wise convolutions.
// Rows may carry the format's trailing empty column or omit it. Beyond
// per-layer validity the rows must be shape-continuous: every layer's ifmap
// must match a produced tensor under the InferGraph rules (exact, padding
// slack, pooled view, concatenation, flatten). Malformed rows and
// discontinuities yield errors wrapping smmerr.ErrBadModel.
func ReadTopologyCSV(name string, r io.Reader) (*Network, error) {
	n, err := readTopologyCSV(name, r)
	if err != nil {
		return nil, smmerr.BadModel(err)
	}
	// Continuity check only: the retyped graph is discarded so the returned
	// network round-trips byte-identically through WriteTopologyCSV.
	if _, err := inferGraph(n); err != nil {
		return nil, smmerr.BadModel(err)
	}
	return n, nil
}

func readTopologyCSV(name string, r io.Reader) (*Network, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // SCALE-Sim rows have a trailing comma
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("model: reading topology CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("model: empty topology CSV")
	}
	n := &Network{Name: name}
	for i, row := range rows {
		if i == 0 && len(row) > 0 && row[0] == topologyHeader[0] {
			continue // header
		}
		if len(row) < 8 {
			return nil, fmt.Errorf("model: topology row %d has %d fields, want >= 8", i+1, len(row))
		}
		vals := make([]int, 7)
		for j := 0; j < 7; j++ {
			v, err := strconv.Atoi(row[j+1])
			if err != nil {
				return nil, fmt.Errorf("model: topology row %d field %d: %w", i+1, j+2, err)
			}
			vals[j] = v
		}
		ih, iw, fh, fw, ci, f, s := vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6]
		kind := layer.Conv
		if fh == 1 && fw == 1 {
			if ih == 1 && iw == 1 {
				kind = layer.FullyConnected
			} else {
				kind = layer.PointwiseConv
			}
		}
		l, err := layer.New(row[0], kind, ih, iw, ci, fh, fw, f, s, 0)
		if err != nil {
			return nil, err
		}
		n.Layers = append(n.Layers, l)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}
