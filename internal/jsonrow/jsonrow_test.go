package jsonrow_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"spanners/internal/jsonrow"
	"spanners/spanner"
)

// escapeCases cover every branch of the escaper: plain ASCII, the short
// escapes, other control bytes, the HTML-sensitive bytes, multi-byte
// runes, U+2028/U+2029, and invalid or truncated UTF-8.
var escapeCases = []string{
	"",
	"plain text, DEL \x7f included",
	"\"quoted\" back\\slash",
	"\b\f\n\r\t",
	"\x00\x01\x1f",
	"<script>&amp;</script>",
	"caf\u00e9 \u20ac \U0001f600",
	"line\u2028para\u2029end",
	"\xff\xfe bad \xc3( \xe2\x82 \xf0\x9f\x98",
	"\xed\xa0\x80 surrogate, \xef\xbf\xbd literal replacement",
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range escapeCases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonrow.AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
		if got := jsonrow.AppendString([]byte("x"), []byte(s)); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("AppendString([]byte %q) = %s, want x%s", s, got, want)
		}
	}
}

// TestPlainMatchesAppendString is the differential pin of the plain fast
// path: Plain(d) holds exactly when AppendString copies every slice of d
// through between quotes, for every single byte and every escape case.
// Valid multi-byte UTF-8 renders verbatim as a whole, yet is not plain: a
// span can end inside a rune, and that slice is invalid UTF-8.
func TestPlainMatchesAppendString(t *testing.T) {
	check := func(d string) {
		t.Helper()
		verbatim := true
		for i := 0; i <= len(d); i++ {
			for j := i; j <= len(d); j++ {
				s := d[i:j]
				verbatim = verbatim && string(jsonrow.AppendString(nil, s)) == `"`+s+`"`
			}
		}
		if got := jsonrow.Plain([]byte(d)); got != verbatim {
			t.Errorf("Plain(%q) = %v, but AppendString copies every slice verbatim: %v", d, got, verbatim)
		}
	}
	for b := 0; b < 256; b++ {
		check(string([]byte{byte(b)}))
	}
	for _, d := range escapeCases {
		check(d)
	}
}

func TestSpansMatchesEncodingJSON(t *testing.T) {
	type jsonSpan struct {
		Start int    `json:"start"`
		End   int    `json:"end"`
		Text  string `json:"text"`
	}
	// Registry order z, a, m; the writer must emit a, m, z and skip the
	// variables a match leaves unassigned.
	cases := []struct {
		name, pattern, doc string
	}{
		{"special bytes inside the spans", `.*!z{[<&]+}!a{.}.*|.*!m{\xe2\x80\xa8}.*`, "x<&\"y\u2028\xff"},
		{"plain document", `.*!z{[bc]+}!a{[a-z]}.*|.*!m{x}.*`, "abcaxb"},
		{"special byte outside every span", `.*!z{[bc]+}!a{[a-z]}.*|.*!m{x}.*`, "abca<xb"},
	}
	for _, tc := range cases {
		s := spanner.MustCompile(tc.pattern)
		spans := jsonrow.NewSpans(s.Vars())
		n := 0
		s.Enumerate([]byte(tc.doc), func(m *spanner.Match) bool {
			n++
			ref := make(map[string]jsonSpan)
			for _, b := range m.Bindings() {
				ref[b.Var] = jsonSpan{Start: b.Span.Start, End: b.Span.End, Text: b.Text}
			}
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if got := spans.Append(nil, m, jsonrow.Plain(m.Doc())); !bytes.Equal(got, want) {
				t.Errorf("%s: Append = %s, want %s", tc.name, got, want)
			}
			return true
		})
		if n < 3 {
			t.Fatalf("%s: only %d matches; want both union branches covered", tc.name, n)
		}
	}
}
