package main

// Pins for the enumerate response's row encoding: appendRow must write
// exactly the bytes encoding/json writes for a matchRow — the rendering
// spannerd used before rows were appended by hand — for any document
// content, and must do so without allocating once its buffer is warm.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"spanners/internal/jsonrow"
	"spanners/spanner"
)

// encodeRow is the reference rendering: one matchRow through encoding/json.
func encodeRow(t testing.TB, doc int, spans map[string]jsonSpan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(matchRow{Doc: doc, Spans: spans}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bindingsOf builds the reference row's spans map the way the map-based
// encoder did, from Bindings.
func bindingsOf(m *spanner.Match) map[string]jsonSpan {
	row := make(map[string]jsonSpan)
	for _, b := range m.Bindings() {
		row[b.Var] = jsonSpan{Start: b.Span.Start, End: b.Span.End, Text: b.Text}
	}
	return row
}

// escapeQuery captures, across its two union branches, text holding every
// byte class the escaper treats specially: t ends on 0xc3, the first byte
// of é, so it closes on an invalid sequence and rest starts on the
// orphaned 0xa9; amp captures an HTML-sensitive byte. The first branch
// assigns two variables whose sorted order reverses their registry order
// and leaves amp unassigned.
const escapeQuery = `union(/!t{.*\xc3}!rest{.*}/, /.*!amp{&.}.*/)`

const escapeDoc = "a<b&c\"d\\e\nf\u2028g\u2029h\x00\x1f\x7f\t\u00e9!>"

func TestEnumerateWireFormatPin(t *testing.T) {
	ts := testServer(t, serverConfig{})
	docs := []string{escapeDoc, "&<", "x"}
	for _, n := range []int{1, len(docs)} { // single-document and batch paths
		code, body := post(t, ts, "/v1/enumerate", map[string]any{
			"query": escapeQuery,
			"docs":  docs[:n],
		})
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var want bytes.Buffer
		tr := trailer{Trailer: true, Docs: n, DocsProcessed: n}
		for i, doc := range docs[:n] {
			for _, spans := range refMatchesOf(t, escapeQuery, doc) {
				want.Write(encodeRow(t, i, spans))
				tr.Matches++
			}
		}
		if tr.Matches < 2 {
			t.Fatalf("only %d reference matches; the pin needs both branches", tr.Matches)
		}
		if err := json.NewEncoder(&want).Encode(tr); err != nil {
			t.Fatal(err)
		}
		if body != want.String() {
			t.Fatalf("%d docs: response body differs from the encoding/json rendering:\ngot  %q\nwant %q", n, body, want.String())
		}
	}
}

func TestAppendRowZeroAlloc(t *testing.T) {
	q, err := spanner.ParseQuery(escapeQuery)
	if err != nil {
		t.Fatal(err)
	}
	esc, err := q.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// One document takes the escaper, the other the plain copy.
	for _, tc := range []struct {
		sp  *spanner.Spanner
		doc string
	}{
		{esc, escapeDoc},
		{spanner.MustCompile(fuzzRowPattern), "plain text"},
	} {
		ms := tc.sp.Collect(nil, []byte(tc.doc), 0)
		if len(ms) == 0 {
			t.Fatal("no matches")
		}
		spans := jsonrow.NewSpans(tc.sp.Vars())
		var d docRows
		var row []byte
		for _, m := range ms {
			row = d.appendRow(row[:0], 7, spans, m)
		}
		for _, m := range ms {
			allocs := testing.AllocsPerRun(100, func() {
				row = d.appendRow(row[:0], 7, spans, m)
			})
			if allocs != 0 {
				t.Errorf("appendRow into a warm buffer: %v allocs, want 0 (row %q)", allocs, row)
			}
		}
	}
}

// fuzzRowPattern assigns pre, z, mid and post around an arbitrary span
// [s, e) of the document — every (s, e) is one match — while u, on the
// other branch, spans the whole document and leaves the rest unassigned.
const fuzzRowPattern = `!pre{.*}!z{!mid{.*}}!post{.*}|!u{.*}`

// FuzzNDJSONRow checks every input twice: as given, and with each byte
// that needs escaping replaced by '.', so the plain copy is exercised on
// every input and not only on the inputs that happen to be plain. Each
// document is enumerated twice through one docRows: the first pass starts
// escaping and crosses the point where the row bytes reach len(doc), the
// second runs wholly on the strategy decided there.
func FuzzNDJSONRow(f *testing.F) {
	f.Add([]byte("John <j@g.be>, Jane <555-12>"), uint8(6), uint8(6), 0)
	f.Add([]byte("a<b>c&d\"e\\f"), uint8(1), uint8(9), 3)
	f.Add([]byte("nul\x00ctl\x01\x1f\x7f\b\f\n\r\t"), uint8(2), uint8(20), 1)
	f.Add([]byte("ls\u2028ps\u2029\u00e9\u20ac\U0001f600"), uint8(3), uint8(5), 12)
	f.Add([]byte("bad\xff\xfe\xc3(\xe2\x82\xf0\x9f\x98"), uint8(4), uint8(3), 1<<40)
	f.Add([]byte("\xed\xa0\x80surrogate\xef\xbf\xbd"), uint8(0), uint8(255), -1)
	f.Add([]byte{}, uint8(0), uint8(0), 0)
	f.Add([]byte("fully plain, DEL \x7f too"), uint8(2), uint8(5), 4)
	f.Add([]byte("abc<def"), uint8(0), uint8(3), 5) // z = "abc"; the < lies outside it

	sp := spanner.MustCompile(fuzzRowPattern, spanner.WithStrict())
	spans := jsonrow.NewSpans(sp.Vars())
	var row []byte
	f.Fuzz(func(t *testing.T, doc []byte, lo, width uint8, id int) {
		if len(doc) > 64 {
			doc = doc[:64] // the pattern has |doc|² matches
		}
		s := int(lo) % (len(doc) + 1)
		e := s + int(width)%(len(doc)+1-s)
		plain := bytes.Clone(doc)
		for i, b := range plain {
			if !jsonrow.Plain([]byte{b}) {
				plain[i] = '.'
			}
		}
		for _, doc := range [][]byte{doc, plain} {
			var d docRows
			for pass := range 2 {
				found := 0
				sp.Enumerate(doc, func(m *spanner.Match) bool {
					if z, ok := m.Span("z"); ok && (z.Start != s || z.End != e) {
						return true
					}
					found++
					row = d.appendRow(row[:0], id, spans, m)
					if want := encodeRow(t, id, bindingsOf(m)); !bytes.Equal(row, want) {
						t.Fatalf("doc %q span [%d,%d) pass %d:\nappendRow %q\nencoding/json %q", doc, s, e, pass, row, want)
					}
					return true
				})
				if found != 2 {
					t.Fatalf("doc %q: checked %d matches, want the [%d,%d) split and the whole-document one", doc, found, s, e)
				}
			}
		}
	})
}

// TestRowBufPoolDropsOversize: a row buffer a long row grew past
// 4*writeBatch never goes back to the pool, so pooled buffers stay small.
func TestRowBufPoolDropsOversize(t *testing.T) {
	big := make([]byte, 0, 4*writeBatch+1)
	putRowBuf(&big)
	for range 8 {
		b := getRowBuf()
		if cap(*b) > 4*writeBatch {
			t.Fatalf("pool returned a %d-byte buffer, over the %d-byte bound", cap(*b), 4*writeBatch)
		}
		defer putRowBuf(b)
	}
}
