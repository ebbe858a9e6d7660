package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"spanners/internal/gen"
	"spanners/internal/rgx"
	"spanners/spanner"
)

// FuzzSpannerdEnumerate is the differential test of the whole daemon: a
// random regex formula and a few small documents go through the HTTP
// handler — strict and lazy mode, documents in the body and in a
// registered corpus, every body encoded with HTML escaping on and off —
// and the NDJSON rows must be exactly the mappings of the Table 1
// semantics (rgx.Evaluate), with /v1/count agreeing on every document.
// Under a limit (0, 1 or 2, drawn from the input) each document streams
// min(limit, |mappings|) of its mappings, and the trailer says truncated
// exactly when some document had more. The same request, cancelled once
// the client has received k rows (1 to 8, drawn from the input), keeps the
// trailer's accounting: it counts the rows received, its processed and
// skipped documents cover the batch, and every row lies in the processed
// prefix.
// The formula and document alphabets hold '<' and '&', which the escaping
// encoder writes as \u003c and \u0026, plus a newline and a two-byte
// UTF-8 letter in the documents.
func FuzzSpannerdEnumerate(f *testing.F) {
	f.Add(uint64(1), uint8(2), []byte("ab"))
	f.Add(uint64(7), uint8(3), []byte(""))
	f.Add(uint64(42), uint8(3), []byte("\x02abba<&"))
	f.Add(uint64(321), uint8(1), []byte("\x01b\x00ab"))
	f.Add(uint64(5), uint8(21), []byte("\x02a&a<aa"))
	f.Fuzz(func(t *testing.T, seed uint64, depth uint8, raw []byte) {
		node := gen.RandomRGX(rand.New(rand.NewSource(int64(seed))), int(depth%3)+1, []string{"x", "y"}, "a<&")
		limit := int(depth/3) % 3
		k := int(depth/9)%8 + 1
		query := "/" + strings.NewReplacer(`\`, `\\`, `/`, `\/`).Replace(node.String()) + "/"
		q, err := spanner.ParseQuery(query)
		if err != nil {
			t.Fatalf("ParseQuery(%s): %v", query, err)
		}
		if _, err := q.Compile(); err != nil {
			t.Skip() // e.g. dense compilation limits
		}
		docs := fuzzDocs(raw)
		want := make([][]string, len(docs))
		for i, doc := range docs {
			ms, err := rgx.Evaluate(node, []byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = ms.Keys() // sorted
		}

		srv := newServer(serverConfig{})
		for _, esc := range []bool{true, false} {
			if code, body := serve(srv, "/v1/corpus/fz", encodeBody(t, corpusRequest{Docs: docs}, esc)); code != http.StatusOK {
				t.Fatalf("corpus registration: %d %s", code, body)
			}
			for _, mode := range []string{"strict", "lazy"} {
				for _, src := range []struct {
					suffix string
					docs   []string
				}{{"", docs}, {"?corpus=fz", nil}} {
					body := encodeBody(t, request{Query: query, Docs: src.docs, Mode: mode, Limit: limit}, esc)
					what := fmt.Sprintf("%s %s (%s, escapeHTML %v, limit %d) on %q", query, mode, src.suffix, esc, limit, docs)
					checkWireRows(t, what, srv, "/v1/enumerate"+src.suffix, body, docs, want, limit)
					checkWireCounts(t, what, srv, "/v1/count"+src.suffix, body, want)
					checkCancelledRows(t, fmt.Sprintf("%s cancelled after %d rows", what, k), srv, "/v1/enumerate"+src.suffix, body, len(docs), k)
				}
			}
		}
	})
}

// fuzzDocs splits raw into one to three documents of at most five
// letters each, drawn from "a", "<", "&", "\n" and "é".
func fuzzDocs(raw []byte) []string {
	letters := []string{"a", "<", "&", "\n", "é"}
	n := 1
	if len(raw) > 0 {
		n, raw = int(raw[0]%3)+1, raw[1:]
	}
	docs := make([]string, n)
	for i := range docs {
		var b strings.Builder
		for k := 0; k < 5 && len(raw) > 0; k++ {
			b.WriteString(letters[int(raw[0])%len(letters)])
			raw = raw[1:]
		}
		docs[i] = b.String()
	}
	return docs
}

// serve runs one POST through srv's handler in-process.
func serve(srv *server, path string, body []byte) (int, string) {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w.Code, w.Body.String()
}

// checkWireRows checks an enumerate response under limit (0 = none)
// against want, the sorted semantics keys of each document: every row's
// spans, rewritten as a 1-based mapping key, with texts that are the
// spanned bytes.
func checkWireRows(t *testing.T, what string, srv *server, path string, body []byte, docs []string, want [][]string, limit int) {
	t.Helper()
	code, resp := serve(srv, path, body)
	if code != http.StatusOK {
		t.Fatalf("%s: enumerate status %d: %s", what, code, resp)
	}
	rows, tr := ndjson(t, resp)
	truncated := false
	for _, w := range want {
		truncated = truncated || limit > 0 && len(w) > limit
	}
	if tr.Docs != len(docs) || tr.DocsProcessed != len(docs) || tr.Error != "" ||
		tr.Matches != int64(len(rows)) || tr.Truncated != truncated {
		t.Fatalf("%s: trailer %+v for %d rows, want truncated %v", what, tr, len(rows), truncated)
	}
	got := make([][]string, len(docs))
	for _, row := range rows {
		var parts []string
		for name, s := range row.Spans {
			if s.Text != docs[row.Doc][s.Start:s.End] {
				t.Fatalf("%s: doc %d %s text %q, want %q", what, row.Doc, name, s.Text, docs[row.Doc][s.Start:s.End])
			}
			parts = append(parts, fmt.Sprintf("%s=[%d,%d)", name, s.Start+1, s.End+1))
		}
		sort.Strings(parts) // by name, as Mapping.Key: the names are single letters
		got[row.Doc] = append(got[row.Doc], strings.Join(parts, "|"))
	}
	for i := range docs {
		sort.Strings(got[i])
		if limit == 0 || len(want[i]) <= limit {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("%s: doc %d rows\n got %v\nwant %v", what, i, got[i], want[i])
			}
			continue
		}
		if len(got[i]) != limit {
			t.Fatalf("%s: doc %d has %d rows, want the limit", what, i, len(got[i]))
		}
		for k, key := range got[i] {
			if !slices.Contains(want[i], key) || k > 0 && key == got[i][k-1] {
				t.Fatalf("%s: doc %d rows %v are not distinct mappings of %v", what, i, got[i], want[i])
			}
		}
	}
}

// checkCancelledRows runs an enumerate request whose context is cancelled
// once the client has received k rows, and checks the trailer's
// accounting of the cut.
func checkCancelledRows(t *testing.T, what string, srv *server, path string, body []byte, docs, k int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	w := &cancelWriter{ResponseRecorder: httptest.NewRecorder(), k: k, cancel: cancel}
	srv.handleEnumerate(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("%s: enumerate status %d: %s", what, w.Code, w.Body)
	}
	rows, tr := ndjson(t, w.Body.String())
	if tr.Matches != int64(len(rows)) || len(rows) != w.rows {
		t.Fatalf("%s: trailer says %d matches; %d rows parsed, %d received", what, tr.Matches, len(rows), w.rows)
	}
	if tr.Docs != docs || tr.DocsProcessed+tr.DocsSkipped != tr.Docs {
		t.Fatalf("%s: inconsistent accounting %+v for %d documents", what, tr, docs)
	}
	for _, row := range rows {
		if row.Doc >= tr.DocsProcessed {
			t.Fatalf("%s: row for doc %d beyond the processed prefix %d", what, row.Doc, tr.DocsProcessed)
		}
	}
	if tr.Error != "" && tr.Error != context.Canceled.Error() {
		t.Fatalf("%s: trailer error %q, want none or %q", what, tr.Error, context.Canceled)
	}
}

// checkWireCounts checks that a count response counts want's mappings.
func checkWireCounts(t *testing.T, what string, srv *server, path string, body []byte, want [][]string) {
	t.Helper()
	code, resp := serve(srv, path, body)
	if code != http.StatusOK {
		t.Fatalf("%s: count status %d: %s", what, code, resp)
	}
	var cr countResponse
	if err := json.Unmarshal([]byte(resp), &cr); err != nil {
		t.Fatalf("%s: count response %q: %v", what, resp, err)
	}
	if len(cr.Counts) != len(want) {
		t.Fatalf("%s: %d counts for %d documents", what, len(cr.Counts), len(want))
	}
	for i, c := range cr.Counts {
		if c.Count != fmt.Sprint(len(want[i])) || !c.Exact {
			t.Fatalf("%s: doc %d count %+v, want %d rows", what, i, c, len(want[i]))
		}
	}
}
