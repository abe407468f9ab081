package server

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// The request-body decoders. Each is json.Unmarshal on its type — the same
// bodies accepted and, on acceptance, the same struct bit for bit — written
// as one pass over the bytes instead of reflection: encoding/json spends
// ~30 µs on a 128-float vector that Add appends in ~0.1 µs.
// FuzzWireMatchesEncodingJSON holds them to json.Unmarshal, and parity
// carries encoding/json's quirks along (DESIGN.md, "Wire decoding"):
//   - a key names a field exactly or case-insensitively, by Unicode simple
//     folding after unescaping ("VECTOR" is vector, and "\u212A", the Kelvin
//     sign, is k);
//   - an unknown key's value is validated, then skipped;
//   - a repeated key decodes again over what the previous one left: the last
//     value wins, and a null array element keeps whatever element is there,
//     0 in fresh storage;
//   - null sets a slice or pointer to nil and leaves a number alone;
//   - floats and integers go through strconv.ParseFloat(tok, 32) and
//     ParseInt(tok, 10, 64), the calls encoding/json makes, so 1e-50
//     underflows to 0, 1e39 is refused, and 1e1 is no integer;
//   - nesting deeper than encoding/json's 10 000 levels is refused;
//   - anything but whitespace after the one value is refused, where
//     json.Decoder would stop after the first value and silently drop a
//     second record.

// decodeAddRequest decodes a /vectors body into r, which must be zero.
func decodeAddRequest(b []byte, r *AddRequest) error {
	d := decoder{b: b}
	return d.top(func(key []byte) error {
		switch {
		case is(key, "vector"):
			return d.floats(&r.Vector)
		case is(key, "time"):
			if d.peek() == 'n' {
				r.Time = nil
				return d.literal("null")
			}
			if r.Time == nil {
				r.Time = new(int64)
			}
			return decodeInt(&d, r.Time)
		case is(key, "batch"):
			return d.entries(&r.Batch)
		}
		return d.skip()
	})
}

// decodeSearchRequest decodes a /search body into r, which must be zero.
func decodeSearchRequest(b []byte, r *SearchRequest) error {
	d := decoder{b: b}
	return d.top(func(key []byte) error {
		switch {
		case is(key, "vector"):
			return d.floats(&r.Vector)
		case is(key, "k"):
			return decodeInt(&d, &r.K)
		case is(key, "start"):
			return decodeInt(&d, &r.Start)
		case is(key, "end"):
			return decodeInt(&d, &r.End)
		}
		return d.skip()
	})
}

// maxDepth is encoding/json's nesting limit; the top-level object is at
// depth 1.
const maxDepth = 10000

// decoder is a cursor over one body.
type decoder struct {
	b     []byte
	i     int // offset of the next unread byte
	depth int // arrays and objects open at the cursor
}

// is reports whether key names the field name as encoding/json matches
// them: bytes.EqualFold, which is the equality of encoding/json's folded
// names. No two names of one request type fold alike, so exact matches
// need no precedence.
func is(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// top decodes the body's one value, then requires the rest to be
// whitespace. The value is an object, or null, which encoding/json accepts
// into a struct and ignores.
func (d *decoder) top(field func(key []byte) error) error {
	d.ws()
	var err error
	switch d.peek() {
	case '{':
		err = d.object(field)
	case 'n':
		err = d.literal("null")
	default:
		err = d.errAt("an object")
	}
	if err != nil {
		return err
	}
	d.ws()
	if d.i < len(d.b) {
		return d.errAt("the end of the body")
	}
	return nil
}

// errAt describes the byte at the cursor, which is not what the decoder
// wanted there. A value of the wrong type is refused as a malformed one
// is: encoding/json refuses both, only with different messages.
func (d *decoder) errAt(want string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	return fmt.Errorf("unexpected %q at offset %d, want %s", d.b[d.i], d.i, want)
}

// peek returns the byte at the cursor, or 0 at the end of the body (0 is
// never valid where a byte is peeked).
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// open moves past the '[' or '{' at the cursor and the whitespace after
// it, one level deeper.
func (d *decoder) open() error {
	d.i++
	if d.depth++; d.depth > maxDepth {
		return fmt.Errorf("nesting deeper than %d at offset %d", maxDepth, d.i-1)
	}
	d.ws()
	return nil
}

// next moves past what follows an element of the array or object that
// end closes: true after a ',' (and its whitespace), false after end.
func (d *decoder) next(end byte) (bool, error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.i++
		d.ws()
		return true, nil
	case end:
		d.i++
		d.depth--
		return false, nil
	}
	return false, d.errAt(fmt.Sprintf("',' or '%c'", end))
}

// object decodes the object at the cursor, calling field with each key,
// unescaped, and the cursor on its value; field must consume the value.
func (d *decoder) object(field func(key []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.i++
		d.depth--
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.errAt("':'")
		}
		d.i++
		d.ws()
		if err := field(key); err != nil {
			return err
		}
		if more, err := d.next('}'); !more {
			return err
		}
	}
}

// array decodes the array at the cursor, calling elem
// with each element's index and the cursor on it; elem must consume the
// element. It returns the element count.
func (d *decoder) array(elem func(i int) error) (int, error) {
	if err := d.open(); err != nil {
		return 0, err
	}
	if d.peek() == ']' {
		d.i++
		d.depth--
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		if more, err := d.next(']'); !more {
			return i + 1, err
		}
	}
}

// skip validates the value at the cursor and moves past it.
func (d *decoder) skip() error {
	var err error
	switch d.peek() {
	case '{':
		err = d.object(func([]byte) error { return d.skip() })
	case '[':
		_, err = d.array(func(int) error { return d.skip() })
	case '"':
		_, err = d.str()
	case 't':
		err = d.literal("true")
	case 'f':
		err = d.literal("false")
	default:
		_, err = d.numberOrNull("a value")
	}
	return err
}

// literal moves past word, which must be at the cursor.
func (d *decoder) literal(word string) error {
	if len(d.b)-d.i < len(word) || string(d.b[d.i:d.i+len(word)]) != word {
		return d.errAt(word)
	}
	d.i += len(word)
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (d *decoder) digits() {
	for d.i < len(d.b) && isDigit(d.b[d.i]) {
		d.i++
	}
}

// number validates the JSON number at the cursor, moves past it, and
// returns its text: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *decoder) number() ([]byte, error) {
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case isDigit(c):
		d.digits()
	default:
		return nil, d.errAt("a digit")
	}
	if d.peek() == '.' {
		d.i++
		if !isDigit(d.peek()) {
			return nil, d.errAt("a digit")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !isDigit(d.peek()) {
			return nil, d.errAt("a digit")
		}
		d.digits()
	}
	return d.b[start:d.i], nil
}

// numberOrNull moves past the number or null at the cursor and returns
// the number's text, or nil for null.
func (d *decoder) numberOrNull(want string) ([]byte, error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || isDigit(c):
		return d.number()
	}
	return nil, d.errAt(want)
}

// str validates the string at the cursor, moves past it, and returns its
// raw contents, escapes included. Control bytes are refused; any other
// byte, invalid UTF-8 too, is accepted, as encoding/json accepts it.
func (d *decoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errAt("a string")
	}
	d.i++
	start := d.i
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], nil
		case c == '\\':
			d.i++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				for k := 0; k < 4; k++ {
					if hexVal(d.peek()) < 0 {
						return nil, d.errAt("a hex digit")
					}
					d.i++
				}
			default:
				return nil, d.errAt("an escape")
			}
		case c < ' ':
			return nil, d.errAt("a string byte")
		default:
			d.i++
		}
	}
	return nil, d.errAt("'\"'")
}

// key reads the object key at the cursor and returns it unescaped.
func (d *decoder) key() ([]byte, error) {
	raw, err := d.str()
	if err != nil || bytes.IndexByte(raw, '\\') < 0 {
		return raw, err
	}
	return unescape(raw), nil
}

func hexVal(c byte) rune {
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

// unescape resolves the escapes of s, a key validated by str. A surrogate
// escape becomes U+FFFD, paired or not, where encoding/json decodes a pair
// to a rune outside the Basic Multilingual Plane: no field name folds to
// either, so the key names the same field, none.
func unescape(s []byte) []byte {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		switch c = s[i]; c {
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			var r rune
			for _, h := range s[i+1 : i+5] {
				r = r<<4 | hexVal(h)
			}
			out = utf8.AppendRune(out, r)
			i += 4
			continue
		}
		out = append(out, c) // \", \\ and \/ stand for c itself
	}
	return out
}

// floats decodes the value at the cursor into *v as encoding/json decodes
// into a []float32: null is nil, and an array of numbers and nulls decodes
// over the storage *v already has, so a null element keeps the element
// there (0 unless a repeated key left one).
func (d *decoder) floats(v *[]float32) error {
	switch d.peek() {
	case 'n':
		*v = nil
		return d.literal("null")
	case '[':
	default:
		return d.errAt("an array of numbers or null")
	}
	s := *v
	n, err := d.array(func(i int) error {
		if i == 0 {
			var err error
			if s, err = d.sizeFloats(s); err != nil {
				return err
			}
		}
		tok, err := d.numberOrNull("a number or null")
		if tok == nil || err != nil {
			return err
		}
		f, err := strconv.ParseFloat(string(tok), 32)
		s[i] = float32(f)
		return err
	})
	if err == nil {
		*v = decoded(s, n)
	}
	return err
}

// sizeFloats returns s at its full capacity, grown to hold the array whose
// first element is at the cursor: one allocation per array at most. Up to
// its first ']' an array of numbers and nulls holds one comma fewer than
// elements, and any other array is refused. n numbers need 2n-1 bytes, so
// an array with more commas than its span can separate is refused before
// anything is allocated, and no body makes the decoder allocate more than
// twice its size.
func (d *decoder) sizeFloats(s []float32) ([]float32, error) {
	span := bytes.IndexByte(d.b[d.i:], ']')
	if span < 0 {
		span = len(d.b) - d.i
	}
	n := 1 + bytes.Count(d.b[d.i:d.i+span], []byte{','})
	if 2*n-1 > span {
		return nil, fmt.Errorf("malformed number array at offset %d", d.i)
	}
	if n > cap(s) {
		s = append(make([]float32, 0, n), s[:cap(s)]...)
	}
	return s[:cap(s)], nil
}

// decoded is the slice encoding/json leaves after decoding an array of n
// elements into storage s: s[:n], or a new empty slice for [].
func decoded[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// decodeInt decodes the value at the cursor into *v as encoding/json
// decodes into an int or int64: null leaves *v alone, and a number must be
// an integer literal that fits.
func decodeInt[T int | int64](d *decoder, v *T) error {
	tok, err := d.numberOrNull("an integer or null")
	if tok == nil || err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err == nil && int64(T(n)) != n {
		err = fmt.Errorf("%s overflows int", tok)
	}
	if err != nil {
		return err
	}
	*v = T(n)
	return nil
}

// entries decodes the value at the cursor into *v as encoding/json decodes
// into a []AddEntry: like floats, an array decodes over the storage *v
// already has, an object element sets only the fields it names, and a null
// element keeps the entry there.
func (d *decoder) entries(v *[]AddEntry) error {
	switch d.peek() {
	case 'n':
		*v = nil
		return d.literal("null")
	case '[':
	default:
		return d.errAt("an array of entries or null")
	}
	s := (*v)[:cap(*v)]
	n, err := d.array(func(i int) error {
		if i == len(s) {
			s = append(s, AddEntry{})
			s = s[:cap(s)]
		}
		e := &s[i]
		switch d.peek() {
		case 'n':
			return d.literal("null")
		case '{':
		default:
			return d.errAt("an entry object or null")
		}
		return d.object(func(key []byte) error {
			switch {
			case is(key, "vector"):
				return d.floats(&e.Vector)
			case is(key, "time"):
				return decodeInt(d, &e.Time)
			}
			return d.skip()
		})
	})
	if err == nil {
		*v = decoded(s, n)
	}
	return err
}
