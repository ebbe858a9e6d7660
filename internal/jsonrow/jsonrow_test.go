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

func TestSpansMatchesEncodingJSON(t *testing.T) {
	type jsonSpan struct {
		Start int    `json:"start"`
		End   int    `json:"end"`
		Text  string `json:"text"`
	}
	// Registry order z, a, m; the writer must emit a, m, z and skip the
	// variables a match leaves unassigned.
	s := spanner.MustCompile(`.*!z{[<&]+}!a{.}.*|.*!m{\xe2\x80\xa8}.*`)
	spans := jsonrow.NewSpans(s.Vars())
	doc := []byte("x<&\"y\u2028\xff")
	n := 0
	s.Enumerate(doc, func(m *spanner.Match) bool {
		n++
		ref := make(map[string]jsonSpan)
		for _, b := range m.Bindings() {
			ref[b.Var] = jsonSpan{Start: b.Span.Start, End: b.Span.End, Text: b.Text}
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := spans.Append(nil, m); !bytes.Equal(got, want) {
			t.Errorf("Append = %s, want %s", got, want)
		}
		return true
	})
	if n < 3 {
		t.Fatalf("only %d matches; want both union branches covered", n)
	}
}
