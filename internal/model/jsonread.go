package model

import (
	"errors"
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxJSONDepth is encoding/json's nesting limit: a document nested deeper
// is a syntax error there, so it is one here too.
const maxJSONDepth = 10000

// ErrDuplicateMember reports an object that names the same member twice.
// encoding/json lets the last one win, or merges a repeated array into the
// first one's elements; the decoders built on JSONReader refuse both.
var ErrDuplicateMember = errors.New("duplicate member")

// JSONReader reads the first JSON value of a byte slice, validating its
// syntax as encoding/json's scanner does: the same grammar, the same string
// escapes, the same nesting limit, and bytes after the value are never
// looked at. It has no reflection and no options. Decoders written for one
// schema drive it value by value:
//
//	if rd.Object() {
//		for key, ok := rd.Member(); ok; key, ok = rd.Member() {
//			... read or Skip exactly one value per member ...
//		}
//	}
//
// Every value method consumes exactly one value. A value of the wrong kind
// is skipped, still validated, and reported through ok == false, so a
// decoder can record a type error and carry on to the end of the document.
// The first syntax error is sticky: from then on every method is a no-op,
// and Err returns it.
type JSONReader struct {
	data  []byte
	pos   int
	depth int
	first bool // the container opened last has not yielded a member yet
	err   error
	key   []byte // scratch for escaped member names

	// Scratch for DecodeNetwork, kept across the networks of one document.
	layers []rawLayer
	names  []byte
}

// NewJSONReader returns a reader positioned before the first value of data.
func NewJSONReader(data []byte) *JSONReader { return &JSONReader{data: data} }

// Err returns the first syntax error, or nil.
func (r *JSONReader) Err() error { return r.err }

// Offset is the position of the next unread byte. After Next it is where
// the next value starts; after a value method, where that value ended.
func (r *JSONReader) Offset() int { return r.pos }

// fail records a syntax error at the current position, then moves to the
// end of the input, where every method finds nothing more to read.
func (r *JSONReader) fail(what string) {
	if r.err == nil {
		if r.pos >= len(r.data) {
			r.err = fmt.Errorf("json: unexpected end of input %s", what)
		} else {
			r.err = fmt.Errorf("json: invalid character %q at offset %d %s", r.data[r.pos], r.pos, what)
		}
	}
	r.pos = len(r.data)
}

// Next skips white space and returns the next byte without consuming it:
// the first byte of the next value, or 0 at the end of the input or after
// a syntax error.
func (r *JSONReader) Next() byte {
	data, i := r.data, r.pos
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			r.pos = i
			return c
		}
	}
	r.pos = i
	return 0
}

// Null consumes the next value if it is null and reports whether it was.
func (r *JSONReader) Null() bool {
	if r.Next() != 'n' {
		return false
	}
	r.literal("null")
	return r.err == nil
}

// Object consumes the '{' of the next value and reports true, or skips the
// value and reports false when it is not an object.
func (r *JSONReader) Object() bool {
	if r.Next() != '{' {
		r.Skip()
		return false
	}
	r.open()
	return r.err == nil
}

// Member advances to the next member of the object being read and returns
// its name, unescaped; the caller then reads or skips its value. At the
// closing '}' it returns false. The name is only valid until the next call.
func (r *JSONReader) Member() ([]byte, bool) {
	if !r.more('}') {
		return nil, false
	}
	if r.Next() != '"' {
		r.fail("looking for the beginning of an object key")
		return nil, false
	}
	name, escaped := r.scanString()
	if escaped {
		r.key = appendUnquoted(r.key[:0], name)
		name = r.key
	}
	if r.Next() != ':' {
		r.fail("after an object key")
		return nil, false
	}
	r.pos++
	return name, r.err == nil
}

// Array consumes the '[' of the next value and reports true, or skips the
// value and reports false when it is not an array.
func (r *JSONReader) Array() bool {
	if r.Next() != '[' {
		r.Skip()
		return false
	}
	r.open()
	return r.err == nil
}

// Elem advances to the next element of the array being read, which the
// caller then reads or skips. At the closing ']' it returns false.
func (r *JSONReader) Elem() bool { return r.more(']') }

// String consumes the next value and returns it, unescaped as
// encoding/json unescapes it, when it is a string.
func (r *JSONReader) String() (string, bool) {
	b, ok := r.Bytes()
	return string(b), ok
}

// Bytes is String without the copy: the bytes are valid until the next
// call that reads a string or a member name.
func (r *JSONReader) Bytes() ([]byte, bool) {
	if r.Next() != '"' {
		r.Skip()
		return nil, false
	}
	s, escaped := r.scanString()
	if r.err != nil {
		return nil, false
	}
	if escaped {
		r.key = appendUnquoted(r.key[:0], s)
		s = r.key
	}
	return s, true
}

// Int consumes the next value and returns it when it is a number that
// encoding/json would store in an int64: an integer literal in range, so
// neither 1e1 nor 8.0.
func (r *JSONReader) Int() (int64, bool) {
	if c := r.Next(); c != '-' && (c < '0' || c > '9') {
		r.Skip()
		return 0, false
	}
	lit := r.scanNumber()
	if r.err != nil {
		return 0, false
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var u uint64
	for _, c := range lit {
		if c < '0' || c > '9' || u > (1<<63)/10 {
			return 0, false // fraction, exponent, or already too large
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// Bool consumes the next value and returns it when it is true or false.
func (r *JSONReader) Bool() (bool, bool) {
	switch r.Next() {
	case 't':
		r.literal("true")
		return true, r.err == nil
	case 'f':
		r.literal("false")
		return false, r.err == nil
	}
	r.Skip()
	return false, false
}

// Skip consumes and validates the next value, whatever it is.
func (r *JSONReader) Skip() {
	switch c := r.Next(); {
	case c == '{':
		r.open()
		for _, ok := r.Member(); ok; _, ok = r.Member() {
			r.Skip()
		}
	case c == '[':
		r.open()
		for r.Elem() {
			r.Skip()
		}
	case c == '"':
		r.scanString()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		r.scanNumber()
	default:
		r.fail("looking for the beginning of a value")
	}
}

// open consumes the '{' or '[' at the current position.
func (r *JSONReader) open() {
	r.pos++
	r.first = true
	if r.depth++; r.depth > maxJSONDepth {
		r.fail("exceeding the maximum nesting depth")
	}
}

// more consumes the ',' before the next member or element and reports
// true, or consumes the container's closing byte and reports false.
func (r *JSONReader) more(closer byte) bool {
	c := r.Next()
	first := r.first
	r.first = false
	switch {
	case r.err != nil:
		return false
	case c == closer:
		r.pos++
		r.depth--
		return false
	case first:
		return true
	case c == ',':
		r.pos++
		return true
	}
	r.fail("after a value")
	return false
}

func (r *JSONReader) literal(lit string) {
	if len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		r.fail("in literal " + lit)
		return
	}
	r.pos += len(lit)
}

// scanString consumes the string at the current position and returns its
// bytes between the quotes. escaped reports whether they differ from the
// string's value: escapes, or invalid UTF-8 that unquoting replaces.
func (r *JSONReader) scanString() (raw []byte, escaped bool) {
	start := r.pos + 1
	ascii := true
	for i := start; i < len(r.data); i++ {
		for i < len(r.data) && plainStringByte[r.data[i]] {
			i++
		}
		if i == len(r.data) {
			break
		}
		switch c := r.data[i]; {
		case c == '"':
			r.pos = i + 1
			raw = r.data[start:i]
			return raw, escaped || !ascii && !utf8.Valid(raw)
		case c == '\\':
			escaped = true
			i++
			if i >= len(r.data) {
				break
			}
			switch r.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 1; j <= 4; j++ {
					if i+j >= len(r.data) || unhex(r.data[i+j]) < 0 {
						r.pos = min(i+j, len(r.data))
						r.fail("in a \\u escape")
						return nil, false
					}
				}
				i += 4
			default:
				r.pos = i
				r.fail("in a string escape")
				return nil, false
			}
		case c < ' ':
			r.pos = i
			r.fail("in a string literal")
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.pos = len(r.data)
	r.fail("in a string literal")
	return nil, false
}

// plainStringByte marks the bytes a string scan can pass over without a
// second look: printable ASCII other than '"' and '\\'.
var plainStringByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanNumber consumes the number literal at the current position.
func (r *JSONReader) scanNumber() []byte {
	d, i := r.data, r.pos
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i)
	default:
		r.pos = i
		r.fail("in a numeric literal")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if n := skipDigits(d, i+1); n > i+1 {
			i = n
		} else {
			r.pos = i + 1
			r.fail("after a decimal point in a numeric literal")
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if n := skipDigits(d, i); n > i {
			i = n
		} else {
			r.pos = i
			r.fail("in the exponent of a numeric literal")
			return nil
		}
	}
	lit := d[r.pos:i]
	r.pos = i
	return lit
}

// skipDigits returns the position after the decimal digits at d[i:].
func skipDigits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// appendUnquoted appends the value of a validated string body (the bytes
// between its quotes) the way encoding/json unquotes it: a valid surrogate
// pair escape becomes its rune, and a lone surrogate escape or an invalid
// UTF-8 byte becomes U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	u4 := func(i int) rune { // the \uXXXX escape at s[i:], or -1
		if i+6 > len(s) || s[i] != '\\' || s[i+1] != 'u' {
			return -1
		}
		return unhex(s[i+2])<<12 | unhex(s[i+3])<<8 | unhex(s[i+4])<<4 | unhex(s[i+5])
	}
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\' && s[i+1] == 'u':
			rr := u4(i)
			i += 6
			if utf16.IsSurrogate(rr) {
				if dec := utf16.DecodeRune(rr, u4(i)); dec != unicode.ReplacementChar {
					rr = dec
					i += 6
				} else {
					rr = unicode.ReplacementChar
				}
			}
			dst = utf8.AppendRune(dst, rr)
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			default: // '"', '\\' and '/' stand for themselves
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			rr, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, rr)
			i += size
		}
	}
	return dst
}

// JSONFields is a table of member names, matched against keys the way
// encoding/json matches struct fields: the exact name, or else the same
// name under its case folding ("IH" finds ih, "ſtrict" finds strict). The
// names are lower-case ASCII.
type JSONFields struct {
	names, folded []string
}

// NewJSONFields builds a table; Index returns positions in names.
func NewJSONFields(names ...string) *JSONFields {
	f := &JSONFields{names: names}
	for _, n := range names {
		f.folded = append(f.folded, string(appendFolded(nil, []byte(n))))
	}
	return f
}

// Name returns the i'th name.
func (f *JSONFields) Name(i int) string { return f.names[i] }

// Index returns the position of the name that key matches, or -1. Members
// usually arrive in schema order, so the name at guess, typically the one
// after the previous member's, is tried first.
func (f *JSONFields) Index(key []byte, guess int) int {
	if guess < len(f.names) && string(key) == f.names[guess] {
		return guess
	}
	for i, n := range f.names {
		if string(key) == n {
			return i
		}
	}
	var buf [32]byte
	folded := appendFolded(buf[:0], key)
	for i, n := range f.folded {
		if string(folded) == n {
			return i
		}
	}
	return -1
}

// appendFolded appends encoding/json's folded form of a member name: ASCII
// letters upper-cased, every other rune replaced by the smallest rune of
// its Unicode simple-folding orbit.
func appendFolded(dst, name []byte) []byte {
	for i := 0; i < len(name); {
		if c := name[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		rr, size := utf8.DecodeRune(name[i:])
		for { // SimpleFold walks the orbit upwards, then wraps to its least
			next := unicode.SimpleFold(rr)
			if next <= rr {
				rr = next
				break
			}
			rr = next
		}
		dst = utf8.AppendRune(dst, rr)
		i += size
	}
	return dst
}
