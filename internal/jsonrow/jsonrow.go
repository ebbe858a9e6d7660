// Package jsonrow renders the "spans" object of a match — the body of an
// NDJSON match row of spannerd and of the spanners CLI's -json output — by
// appending into a caller-owned buffer. The bytes are exactly what
// encoding/json writes for a map[string]struct{Start, End int; Text
// string} with fields tagged start/end/text: keys in sorted order, the
// default HTML-safe string escaping, invalid UTF-8 replaced by U+FFFD. What
// it saves is the per-match map, the Bindings slice, the Text strings and
// the reflection walk; a warm buffer appends a row without allocating.
//
// Two decisions are taken once instead of per match: NewSpans resolves the
// sorted names to their Vars indices once per variable set, and a DocState
// decides at most once per document, through Plain, whether any of its
// bytes needs escaping. A text sliced from a plain document is copied
// through between quotes, without the escaper's byte-by-byte scan. The
// decision waits until the rows of a document have emitted as many bytes
// as the document holds, so a document with a few short matches never pays
// an O(|doc|) scan for them: the plainness work stays within about twice
// the cheaper of the two strategies, escaping every span or scanning once.
package jsonrow

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"spanners/spanner"
)

// Spans appends the spans object of matches over one fixed set of
// variables. Build it once per variable set (per request); it is
// read-only afterwards and safe for concurrent use.
type Spans struct {
	vars []int    // Vars indices, in the sorted order encoding/json gives map keys
	keys [][]byte // keys[i] is the name of vars[i] quoted, then `:{"start":`
}

// NewSpans prepares the writer for matches of a spanner whose variables
// are vars (Spanner.Vars, indexed like Match.Vars).
func NewSpans(vars []string) *Spans {
	order := make([]int, len(vars))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(vars[a], vars[b]) })
	keys := make([][]byte, len(order))
	for i, v := range order {
		keys[i] = append(AppendString(nil, vars[v]), `:{"start":`...)
	}
	return &Spans{vars: order, keys: keys}
}

// DocState is the escaping state of one document's rows. The zero value
// starts a document: its texts are escaped through AppendString until the
// spans objects appended for it reach len(doc) bytes; then Plain runs once,
// and if it holds every later text is copied through as is. Use one
// DocState per document, never across documents.
type DocState struct {
	emitted int  // bytes appended for the document while undecided
	decided bool // Plain has run; plain holds its answer
	plain   bool
}

// plainOf is Plain, called through a variable so the package's own tests
// can count the scans a DocState runs.
var plainOf = Plain

// Append appends m's spans object to dst and returns the extended buffer:
// one {"start":S,"end":E,"text":"…"} entry per variable m assigns, the
// text sliced from the match's document. st is the DocState of m's
// document, updated in place.
func (s *Spans) Append(dst []byte, m *spanner.Match, st *DocState) []byte {
	doc := m.Doc()
	verbatim, start := st.plain, len(dst)
	dst = append(dst, '{')
	first := true
	for i, v := range s.vars {
		sp, ok := m.SpanAt(v)
		if !ok {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, s.keys[i]...)
		dst = strconv.AppendInt(dst, int64(sp.Start), 10)
		dst = append(dst, `,"end":`...)
		dst = strconv.AppendInt(dst, int64(sp.End), 10)
		dst = append(dst, `,"text":`...)
		if verbatim {
			dst = append(dst, '"')
			dst = append(dst, doc[sp.Start:sp.End]...)
			dst = append(dst, '"')
		} else {
			dst = AppendString(dst, doc[sp.Start:sp.End])
		}
		dst = append(dst, '}')
	}
	dst = append(dst, '}')
	if !st.decided {
		if st.emitted += len(dst) - start; st.emitted >= len(doc) {
			st.plain, st.decided = plainOf(doc), true
		}
	}
	return dst
}

// Plain reports whether every slice s of doc renders as `"` + s + `"`,
// that is whether AppendString copies each byte of doc through unescaped.
// Bytes from 0x80 up never do: a slice can end inside a multi-byte rune.
// It is one O(|doc|) pass; DocState runs it at most once per document.
func Plain(doc []byte) bool {
	for _, b := range doc {
		if !plain[b] {
			return false
		}
	}
	return true
}

// plain marks the bytes that encoding/json copies through unescaped in its
// default HTML-safe mode: printable ASCII and DEL, minus the quote, the
// backslash and <, >, &. No byte from 0x80 up is plain: it starts or
// continues a multi-byte sequence that AppendString must decode.
var plain = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// AppendString appends s to dst as a quoted JSON string, escaped exactly
// as encoding/json escapes strings by default: \" \\ \n \r \t \b \f,
// other control bytes and <, >, & as \u00XX, U+2028 and U+2029 as
// \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func AppendString[T []byte | string](dst []byte, s T) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending, to be copied through verbatim
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		// Decode through a string of at most UTFMax bytes: for a []byte
		// argument the conversion stays on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
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
