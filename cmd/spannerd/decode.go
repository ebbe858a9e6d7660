// Request decoding. Every JSON body spannerd accepts goes through
// decodeBody: one read of the body into a pooled buffer, then one pass
// over it by a decoder that knows the fixed request schemas. It accepts
// only inputs on which its result provably equals what encoding/json
// gives through decodeStrict; on every other input — null values,
// unknown, case-variant or repeated keys, numbers an int field rejects,
// syntax errors, trailing data, surrogate escapes, invalid UTF-8, a body
// that fails to read — it hands the same bytes to decodeStrict, so
// results, error texts and the 413 for oversize bodies are decodeStrict's.

package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// decodeStrict decodes exactly one JSON value from r into v, rejecting
// trailing garbage. A single dec.Decode stops at the end of the first
// value, silently ignoring a second concatenated object or junk bytes —
// for a hostile or confused client that is a request whose tail the
// server would quietly drop, so it is a client error instead. The check
// decodes a second value and demands io.EOF: concatenated JSON decodes
// (not EOF) and junk errors (not EOF), while trailing whitespace is EOF.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return errors.New("request body has trailing data after the JSON object")
	}
	return nil
}

// A wireBody is a request schema the one-pass decoder reads. field
// decodes the value of the member named key from d and returns the
// member's bit, distinct per member; ok is false for a key outside the
// schema or a value the fast path does not take.
type wireBody interface {
	field(d *bodyDecoder, key []byte) (bit uint, ok bool)
}

// decodeBody reads the JSON body r into a new B and returns it, with
// decodeStrict's result and errors. Every string of the result is copied
// out of the pooled body buffer into memory of its own, so nothing the
// request keeps aliases a buffer that a later request reuses.
func decodeBody[B any, PB interface {
	*B
	wireBody
}](r io.Reader) (*B, error) {
	bb := getBodyBuf()
	defer putBodyBuf(bb)
	_, err := bb.body.ReadFrom(r)
	raw := bb.body.Bytes()
	if err == nil {
		v := PB(new(B))
		d := bodyDecoder{buf: raw, scratch: bb.scratch}
		ok := d.object(v)
		bb.scratch = d.scratch
		if ok {
			return v, nil
		}
	}
	var src io.Reader = bytes.NewReader(raw)
	if err != nil {
		// Replay what was read, then the error, so decodeStrict reports
		// exactly what it would have reading r itself: the bytes before
		// the error decide the outcome, and a *http.MaxBytesError stays in
		// the chain for writeRequestError.
		src = io.MultiReader(src, errReader{err})
	}
	v := PB(new(B))
	if err := decodeStrict(src, v); err != nil {
		return nil, err
	}
	return v, nil
}

// errReader is a reader that fails with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// bodyBuf is the pooled memory of one decode: the raw body, and the
// scratch space strings with escapes are decoded into before their copy.
type bodyBuf struct {
	body    bytes.Buffer
	scratch []byte
}

// maxPooledBody bounds the buffers bodyBufs keeps: one that a large body
// (a corpus registration, say) grew past it is left to the collector.
const maxPooledBody = 256 << 10

var bodyBufs sync.Pool

func getBodyBuf() *bodyBuf {
	if v := bodyBufs.Get(); v != nil {
		return v.(*bodyBuf)
	}
	return new(bodyBuf)
}

func putBodyBuf(b *bodyBuf) {
	if b.body.Cap() > maxPooledBody || cap(b.scratch) > maxPooledBody {
		return
	}
	b.body.Reset()
	bodyBufs.Put(b)
}

// docBytes returns the bytes of document s without copying them. The
// spanner library only reads a document (it borrows it for the scan and
// slices match texts out of it), so the string's memory is never written.
func docBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// bodyDecoder is one pass over a request body, buf[pos:] still to read.
// Every method returns false where the input leaves the fast path's
// scope; the caller then falls back to decodeStrict.
type bodyDecoder struct {
	buf     []byte
	pos     int
	scratch []byte
}

// object reads the whole body: one JSON object whose members v's field
// method takes, each at most once, and nothing after it but whitespace.
func (d *bodyDecoder) object(v wireBody) bool {
	d.space()
	if !d.eat('{') {
		return false
	}
	d.space()
	if d.eat('}') {
		return d.end()
	}
	var seen uint
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		d.space()
		if !d.eat(':') {
			return false
		}
		d.space()
		bit, ok := v.field(d, key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		d.space()
		if d.eat('}') {
			return d.end()
		}
		if !d.eat(',') {
			return false
		}
		d.space()
	}
}

// end reports whether only whitespace is left.
func (d *bodyDecoder) end() bool {
	d.space()
	return d.pos == len(d.buf)
}

// space skips JSON whitespace.
func (d *bodyDecoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *bodyDecoder) eat(c byte) bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// key reads a member name made of plain ASCII, the only spelling of the
// schema's names the fast path matches; it aliases buf.
func (d *bodyDecoder) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.pos
	d.pos = skipPlain(d.buf, start)
	end := d.pos
	return d.buf[start:end], d.eat('"')
}

// str decodes a string value into *s.
func (d *bodyDecoder) str(s *string) bool {
	b, ok := d.strBytes()
	if ok {
		*s = string(b)
	}
	return ok
}

// strs decodes an array of strings into *s; an empty array gives an
// empty, non-nil slice, as encoding/json does.
func (d *bodyDecoder) strs(s *[]string) bool {
	if !d.eat('[') {
		return false
	}
	list := []string{}
	d.space()
	if d.eat(']') {
		*s = list
		return true
	}
	for {
		b, ok := d.strBytes()
		if !ok {
			return false
		}
		list = append(list, string(b))
		d.space()
		if d.eat(']') {
			*s = list
			return true
		}
		if !d.eat(',') {
			return false
		}
		d.space()
	}
}

// integer decodes an integer of at most 18 digits, which no int64 overflows,
// into *n. Fractions, exponents and longer integers are left to
// decodeStrict, which either rejects them for an int field or (19 digits
// within range) decodes them itself.
func (d *bodyDecoder) integer(n *int64) bool {
	neg := d.eat('-')
	start := d.pos
	var v int64
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		v = v*10 + int64(d.buf[d.pos]-'0')
		d.pos++
	}
	digits := d.pos - start
	if digits == 0 || digits > 18 || digits > 1 && d.buf[start] == '0' {
		return false
	}
	if d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case '.', 'e', 'E':
			return false
		}
	}
	if neg {
		v = -v
	}
	*n = v
	return true
}

// plain marks the bytes a JSON string holds verbatim and that need no
// further look: printable ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// skipPlain returns the index of the first byte at or after i in b that
// is not plain, or len(b). It tests eight bytes at a time: notPlain sets
// the high bit of the lowest byte of a word that is not plain, and
// possibly of bytes above it, never below.
func skipPlain(b []byte, i int) int {
	for ; i+8 <= len(b); i += 8 {
		if m := notPlain(binary.LittleEndian.Uint64(b[i:])); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for i < len(b) && plain[b[i]] {
		i++
	}
	return i
}

// notPlain flags the bytes of x that are below 0x20, '"', '\\' or at
// least 0x80; a borrow can also flag a byte above a flagged one.
func notPlain(x uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	q := x ^ '"'*ones
	bs := x ^ '\\'*ones
	return ((x-0x20*ones)&^x | (q-ones)&^q | (bs-ones)&^bs | x) & highs
}

// strBytes reads a string token and returns its decoded bytes: a slice of
// buf when the string has no escapes, else of d.scratch; both are reused,
// so the caller copies what it keeps. It takes printable ASCII, valid
// multi-byte UTF-8, the two-character escapes and \uXXXX outside the
// surrogate range; anything else (control bytes, invalid UTF-8, surrogate
// escapes, which encoding/json replaces or pairs) is left to decodeStrict.
func (d *bodyDecoder) strBytes() ([]byte, bool) {
	buf := d.buf
	i := d.pos
	if i >= len(buf) || buf[i] != '"' {
		return nil, false
	}
	i++
	start := i
	out := d.scratch[:0]
	run := i // start of the bytes not yet copied to out; start until an escape
	for {
		if i = skipPlain(buf, i); i == len(buf) {
			return nil, false
		}
		switch c := buf[i]; {
		case c == '"':
			d.pos = i + 1
			if run == start {
				return buf[start:i], true
			}
			d.scratch = append(out, buf[run:i]...)
			return d.scratch, true
		case c == '\\':
			if i+1 >= len(buf) {
				return nil, false
			}
			out = append(out, buf[run:i]...)
			switch e := buf[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(buf[i+2:])
				if !ok || 0xD800 <= r && r < 0xE000 {
					return nil, false
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return nil, false
			}
			i += 2
			run = i
		case c < 0x20:
			return nil, false
		default: // c >= 0x80
			if _, size := utf8.DecodeRune(buf[i:]); size > 1 {
				i += size
				continue
			}
			return nil, false
		}
	}
}

// hex4 decodes the four hex digits at the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// The members of request, one bit each.
const (
	fieldQuery uint = 1 << iota
	fieldDocs
	fieldMode
	fieldLimit
	fieldTimeout
)

func (req *request) field(d *bodyDecoder, key []byte) (uint, bool) {
	switch string(key) {
	case "query":
		return fieldQuery, d.str(&req.Query)
	case "docs":
		return fieldDocs, d.strs(&req.Docs)
	case "mode":
		return fieldMode, d.str(&req.Mode)
	case "limit":
		var n int64
		ok := d.integer(&n) && n == int64(int(n))
		req.Limit = int(n)
		return fieldLimit, ok
	case "timeout_ms":
		return fieldTimeout, d.integer(&req.TimeoutMS)
	}
	return 0, false
}

func (req *corpusRequest) field(d *bodyDecoder, key []byte) (uint, bool) {
	if string(key) == "docs" {
		return fieldDocs, d.strs(&req.Docs)
	}
	return 0, false
}
