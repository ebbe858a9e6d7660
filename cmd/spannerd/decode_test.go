package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"spanners/corpus"
	"spanners/internal/gen"
)

// encodeBody renders v as a request body, with encoding/json's HTML
// escaping of <, > and & (json.Marshal) or without it (an Encoder with
// SetEscapeHTML(false), which also ends the body with a newline).
func encodeBody(t testing.TB, v any, escapeHTML bool) []byte {
	t.Helper()
	if escapeHTML {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// namedBody is one request body a test or benchmark decodes.
type namedBody struct {
	name string
	body []byte
}

// wireBodies are the request bodies of the end-to-end benchmark's
// workloads: a query-churn request (a Figure 1 variant over one ~2 KB
// contacts document, whose texts hold '<', '>' and newlines) and the
// nested-enum request (four 4 KiB DenseMarkers documents), each encoded
// with and without HTML escaping.
func wireBodies(t testing.TB) []namedBody {
	churn := request{
		Query: `/.*!name{[A-Z][a-z_#]+} <(!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*/`,
		Docs:  []string{string(gen.Contacts(100, 1))},
		Mode:  "lazy",
	}
	nested := request{Query: "/" + gen.NestedPattern(2) + "/", Mode: "strict", Limit: 20000}
	for i := range 4 {
		nested.Docs = append(nested.Docs, string(gen.DenseMarkers(4<<10, int64(i))))
	}
	return []namedBody{
		{"churn/html", encodeBody(t, churn, true)},
		{"churn/plain", encodeBody(t, churn, false)},
		{"nested/html", encodeBody(t, nested, true)},
		{"nested/plain", encodeBody(t, nested, false)},
	}
}

// wireBodyNamed returns the wireBodies body called name.
func wireBodyNamed(t testing.TB, name string) []byte {
	t.Helper()
	for _, wb := range wireBodies(t) {
		if wb.name == name {
			return wb.body
		}
	}
	t.Fatalf("no wire body %q", name)
	return nil
}

// TestDecodeFastPathTakesWireBodies checks that the one-pass decoder
// itself — not its decodeStrict fallback — decodes the benchmark bodies
// and a corpus registration body, to decodeStrict's result.
func TestDecodeFastPathTakesWireBodies(t *testing.T) {
	for _, wb := range wireBodies(t) {
		var fast, strict request
		d := bodyDecoder{buf: wb.body}
		if !d.object(&fast) {
			t.Fatalf("%s: the one-pass decoder left the body to decodeStrict", wb.name)
		}
		if err := decodeStrict(bytes.NewReader(wb.body), &strict); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, strict) {
			t.Fatalf("%s: one-pass decode differs from decodeStrict", wb.name)
		}
	}
	body := encodeBody(t, corpusRequest{Docs: []string{"a<b>&c\n", "", "é "}}, true)
	var fast, strict corpusRequest
	if d := (bodyDecoder{buf: body}); !d.object(&fast) {
		t.Fatalf("corpus body %s left to decodeStrict", body)
	}
	if err := decodeStrict(bytes.NewReader(body), &strict); err != nil || !reflect.DeepEqual(fast, strict) {
		t.Fatalf("corpus body %s: one-pass %q, decodeStrict %q (%v)", body, fast.Docs, strict.Docs, err)
	}
}

// FuzzDecodeRequest pins the one-pass decoder to decodeStrict: on any
// body, both request schemas decode to reflect.DeepEqual values (so nil
// and empty docs stay distinct) or fail with the same error text.
func FuzzDecodeRequest(f *testing.F) {
	// Small bodies of the wire shape: the fuzzer minimizes every input
	// that finds new coverage, and that is slow on the benchmark bodies
	// (TestDecodeFastPathTakesWireBodies decodes those).
	small := request{Query: `/.*!name{[A-Z][a-z]+} <!phone{[0-9]+}>.*/`, Docs: []string{string(gen.Contacts(2, 1)), "é\u2028"}, Mode: "lazy", Limit: 7}
	f.Add(encodeBody(f, small, true))
	f.Add(encodeBody(f, small, false))
	for _, s := range []string{
		`{"query":"/!x{a+}/","docs":["aaa"],"mode":"strict","limit":3,"timeout_ms":50}`,
		`{"query":"/<!x{a+}>/","docs":["<aa> &"]}`,
		`{"query":"/a/","docs":["\ud83d\ude00"]}`,         // a surrogate pair
		`{"query":"/a/","docs":["\ud83d x"]}`,             // a lone surrogate
		`{"query":"/a/","docs":["\ude00\ud83d"]}`,         // reversed pair
		"{\"query\":\"/a/\",\"docs\":[\"\xff\xfe\"]}",     // invalid UTF-8
		"{\"query\":\"/a/\",\"docs\":[\"\xed\xa0\x80\"]}", // UTF-8 of a surrogate
		`{"query":"/a/","docs":["\/\b\f\n\r\t\"\\"]}`,
		`{"Query":"/a/","docs":["a"]}`,
		`{"query":"/a/","docs":["a"],"docs":["b"]}`,
		`{"query":"/a/","docs":null}`,
		`{"query":null,"docs":["a"]}`,
		`{"query":"/a/","docs":[]}`,
		`{"query":"/a/","docs":["a"],"limit":1e2}`,
		`{"query":"/a/","docs":["a"],"limit":1.0}`,
		`{"query":"/a/","docs":["a"],"limit":-0}`,
		`{"query":"/a/","docs":["a"],"limit":01}`,
		`{"query":"/a/","docs":["a"],"timeout_ms":9223372036854775807}`,
		`{"query":"/a/","docs":["a"],"timeout_ms":9223372036854775808}`,
		`{"query":"/a/","docs":["a"],"nope":1}`,
		`{"query":"/a/","docs":["a"]}{}`,
		"{\"query\":\"/a/\",\"docs\":[\"a\"]} \n\t\r",
		` { "query" : "/a/" , "docs" : [ "a" , "b" ] } `,
		`{}`,
		``,
		`[]`,
		`{"docs":["x"]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesStrict[request](t, body)
		checkDecodeMatchesStrict[corpusRequest](t, body)
	})
}

func checkDecodeMatchesStrict[B any, PB interface {
	*B
	wireBody
}](t *testing.T, body []byte) {
	t.Helper()
	got, err := decodeBody[B, PB](bytes.NewReader(body))
	var want B
	wantErr := decodeStrict(bytes.NewReader(body), &want)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%T of %q: one-pass error %v, decodeStrict error %v", want, body, err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%T of %q: one-pass error %q, decodeStrict error %q", want, body, err, wantErr)
		}
	case !reflect.DeepEqual(*got, want):
		t.Fatalf("%T of %q: one-pass %#v, decodeStrict %#v", want, body, *got, want)
	}
}

// TestOversizeBodyIs413 sends bodies one byte past the server's bound,
// cut off inside a document, to both evaluation endpoints and to corpus
// registration: the read error reaches decodeStrict, which reports it as
// the body being too large, and the handler answers 413.
func TestOversizeBodyIs413(t *testing.T) {
	srv := newServer(serverConfig{maxBody: 64, corpusLimits: corpus.Limits{MaxBytes: 16}})
	doc := strings.Repeat("<a>", 1000)
	for _, c := range []struct {
		path string
		body []byte
		max  int64
	}{
		{"/v1/enumerate", encodeBody(t, request{Query: "/a/", Docs: []string{doc}}, true), 64},
		{"/v1/count", encodeBody(t, request{Query: "/a/", Docs: []string{doc}}, false), 64},
		{"/v1/corpus/c", encodeBody(t, corpusRequest{Docs: []string{doc, doc}}, true), srv.corpusBodyLimit()},
	} {
		body := c.body[:c.max+1]
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(body)))
		var eb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: error body %q: %v", c.path, w.Body, err)
		}
		if w.Code != http.StatusRequestEntityTooLarge || eb.Error != "decoding request body: http: request body too large" {
			t.Errorf("%s: status %d, error %q; want 413, the body is too large", c.path, w.Code, eb.Error)
		}
	}
}
