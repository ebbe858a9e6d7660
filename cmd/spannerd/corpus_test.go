package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spanners/corpus"
	"spanners/internal/gen"
)

// postRaw posts and returns the full response, for tests that need headers.
func postRaw(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func registerCorpus(t *testing.T, ts *httptest.Server, name string, docs []string) corpusInfo {
	t.Helper()
	code, body := post(t, ts, "/v1/corpus/"+name, corpusRequest{Docs: docs})
	if code != http.StatusOK {
		t.Fatalf("register %s: %d %s", name, code, body)
	}
	var info corpusInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func corpusDocs(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		switch i % 4 {
		case 0:
			docs[i] = string(gen.Contacts(4+i%7, int64(i)))
		case 1:
			docs[i] = "no matches in this document"
		case 2:
			docs[i] = string(gen.Figure1Doc())
		default:
			docs[i] = ""
		}
	}
	return docs
}

// TestCorpusLifecycle walks register → info → replace → delete →
// re-register, pinning the monotone generation story on the wire.
func TestCorpusLifecycle(t *testing.T) {
	ts := testServer(t, serverConfig{})
	docs := corpusDocs(10)

	info := registerCorpus(t, ts, "contacts", docs)
	if info.Generation != 1 || info.Docs != 10 || info.Bytes <= 0 || info.MatchesServed != 0 {
		t.Fatalf("register info = %+v", info)
	}

	// GET info describes the same snapshot.
	code, body := get(t, ts, "/v1/corpus/contacts")
	if code != http.StatusOK {
		t.Fatalf("info: %d %s", code, body)
	}
	var full corpusInfo
	if err := json.Unmarshal([]byte(body), &full); err != nil {
		t.Fatal(err)
	}
	if full != info {
		t.Fatalf("info = %+v, registration said %+v", full, info)
	}

	if info := registerCorpus(t, ts, "contacts", docs[:4]); info.Generation != 2 || info.Docs != 4 {
		t.Fatalf("replace info = %+v", info)
	}

	// List shows it; delete consumes a generation; re-register keeps climbing.
	code, body = get(t, ts, "/v1/corpus")
	if code != http.StatusOK || !strings.Contains(body, `"contacts"`) {
		t.Fatalf("list: %d %s", code, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/corpus/contacts", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del struct {
		Generation uint64 `json:"generation"`
		Deleted    bool   `json:"deleted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !del.Deleted || del.Generation != 3 {
		t.Fatalf("delete = %d %+v", resp.StatusCode, del)
	}
	if code, _ := get(t, ts, "/v1/corpus/contacts"); code != http.StatusNotFound {
		t.Fatalf("info after delete = %d, want 404", code)
	}
	if info := registerCorpus(t, ts, "contacts", docs[:1]); info.Generation != 4 {
		t.Fatalf("re-register generation = %d, want 4 (past the tombstone)", info.Generation)
	}
}

func TestCorpusRegistrationErrors(t *testing.T) {
	ts := testServer(t, serverConfig{corpusLimits: corpus.Limits{
		MaxCorpora: 4, MaxDocs: 50, MaxBytes: 1 << 20,
	}})
	cases := []struct {
		name string
		path string
		body any
		code int
	}{
		{"invalid name", "/v1/corpus/bad%20name", corpusRequest{Docs: []string{"x"}}, http.StatusBadRequest},
		{"shards field", "/v1/corpus/c", map[string]any{"docs": []string{"x"}, "shards": 4}, http.StatusBadRequest},
		{"too many docs", "/v1/corpus/c", corpusRequest{Docs: make([]string, 100)}, http.StatusBadRequest},
		{"unknown field", "/v1/corpus/c", map[string]any{"docs": []string{"x"}, "nope": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, body := post(t, ts, tc.path, tc.body); code != tc.code {
			t.Errorf("%s: %d %s, want %d", tc.name, code, body, tc.code)
		}
	}
	// The document-count bound must be enforced by the handler before the
	// request docs are materialized as [][]byte: the 400 has to come from
	// the server's pre-check, not from the registry, which only runs after
	// the allocation the check exists to prevent (taintflow pins the same
	// property statically).
	if code, body := post(t, ts, "/v1/corpus/c", corpusRequest{Docs: make([]string, 100)}); code != http.StatusBadRequest || !strings.Contains(body, "this server accepts at most") {
		t.Errorf("doc-count bound: %d %s, want a 400 from the handler pre-check", code, body)
	}
	// Enumerating an unregistered corpus is a 404, not a 400: the request
	// is well-formed, the name just doesn't resolve.
	if code, body := post(t, ts, "/v1/enumerate?corpus=nope", map[string]any{"query": "/a/"}); code != http.StatusNotFound {
		t.Errorf("unknown corpus enumerate: %d %s, want 404", code, body)
	}
	if code, body := post(t, ts, "/v1/count?corpus=nope", map[string]any{"query": "/a/"}); code != http.StatusNotFound {
		t.Errorf("unknown corpus count: %d %s, want 404", code, body)
	}
	// docs + corpus is ambiguous and rejected before name resolution.
	if code, _ := post(t, ts, "/v1/enumerate?corpus=nope", map[string]any{"query": "/a/", "docs": []string{"x"}}); code != http.StatusBadRequest {
		t.Errorf("docs+corpus: %d, want 400", code)
	}
}

// TestCorpusEnumerateByteIdentical is the acceptance differential: the
// NDJSON stream (rows AND trailer) of a corpus enumeration, and its
// counts, are byte-identical to the evaluation of the same documents as
// request-body docs, strict and lazy.
func TestCorpusEnumerateByteIdentical(t *testing.T) {
	ts := testServer(t, serverConfig{})
	docs := corpusDocs(23)
	registerCorpus(t, ts, "c", docs)

	for _, mode := range []string{"strict", "lazy"} {
		_, want := post(t, ts, "/v1/enumerate", map[string]any{
			"query": testQuery, "docs": docs, "mode": mode,
		})
		_, wantCounts := post(t, ts, "/v1/count", map[string]any{
			"query": testQuery, "docs": docs, "mode": mode,
		})
		resp := postRaw(t, ts, "/v1/enumerate?corpus=c", map[string]any{
			"query": testQuery, "mode": mode,
		})
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", mode, resp.StatusCode, body)
		}
		if body != want {
			t.Fatalf("%s: corpus stream diverges from the docs stream\ngot  %s\nwant %s", mode, body, want)
		}
		if g := resp.Header.Get("X-Spanners-Corpus-Generation"); g != "1" {
			t.Fatalf("%s: generation header %q", mode, g)
		}
		if code, counts := post(t, ts, "/v1/count?corpus=c", map[string]any{
			"query": testQuery, "mode": mode,
		}); code != http.StatusOK || counts != wantCounts {
			t.Fatalf("%s: corpus counts diverge (%d)\ngot  %s\nwant %s", mode, code, counts, wantCounts)
		}
	}
}

// TestCorpusEdgeSizes runs the corpora at the edges of the two evaluation
// paths through enumerate and count in both modes: an empty corpus, which
// answers with an empty trailer and no counts, and a one-document corpus,
// which takes the single-document path and must match the docs request
// byte for byte.
func TestCorpusEdgeSizes(t *testing.T) {
	ts := testServer(t, serverConfig{})
	one := []string{string(gen.Figure1Doc())}
	registerCorpus(t, ts, "empty", []string{})
	registerCorpus(t, ts, "one", one)

	for _, mode := range []string{"strict", "lazy"} {
		q := map[string]any{"query": testQuery, "mode": mode}
		if code, body := post(t, ts, "/v1/enumerate?corpus=empty", q); code != http.StatusOK ||
			body != `{"trailer":true,"docs":0,"docs_processed":0,"docs_skipped":0,"matches":0}`+"\n" {
			t.Errorf("%s: empty corpus enumerate = %d %q", mode, code, body)
		}
		if code, body := post(t, ts, "/v1/count?corpus=empty", q); code != http.StatusOK || body != `{"counts":[]}`+"\n" {
			t.Errorf("%s: empty corpus count = %d %q", mode, code, body)
		}

		withDocs := map[string]any{"query": testQuery, "mode": mode, "docs": one}
		for _, ep := range []string{"/v1/enumerate", "/v1/count"} {
			_, want := post(t, ts, ep, withDocs)
			code, body := post(t, ts, ep+"?corpus=one", q)
			if code != http.StatusOK || body != want {
				t.Errorf("%s %s: one-document corpus = %d\ngot  %q\nwant %q", mode, ep, code, body, want)
			}
		}
	}
}

// TestCorpusDeadlineAccounting registers a corpus big enough that a short
// deadline lands mid-stream and pins the trailer: error set, exact
// processed/skipped split, every row inside the processed prefix.
func TestCorpusDeadlineAccounting(t *testing.T) {
	ts := testServer(t, serverConfig{})
	doc := string(gen.Contacts(4000, 9))
	docs := make([]string, 64)
	for i := range docs {
		docs[i] = doc
	}
	registerCorpus(t, ts, "big", docs)
	// Warm the cache so compilation doesn't eat the budget.
	if code, body := post(t, ts, "/v1/count", map[string]any{
		"query": testQuery, "docs": []string{"warm"}}); code != http.StatusOK {
		t.Fatalf("warmup: %d %s", code, body)
	}
	code, body := post(t, ts, "/v1/enumerate?corpus=big", map[string]any{
		"query": testQuery, "timeout_ms": 15,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows, tr := ndjson(t, body)
	if tr.Error == "" {
		t.Skip("machine evaluated ~6 MB under 15ms; deadline never landed")
	}
	if tr.Docs != len(docs) || tr.DocsProcessed+tr.DocsSkipped != tr.Docs {
		t.Fatalf("inconsistent accounting: %+v", tr)
	}
	if tr.DocsSkipped == 0 {
		t.Fatalf("deadline reported but nothing skipped: %+v", tr)
	}
	// The engine emits a strict input-order prefix, and every document
	// of this corpus has matches, so each processed document — the last
	// one, cut mid-stream, included — carries at least one row.
	seen := make(map[int]bool)
	for _, row := range rows {
		if row.Doc >= tr.DocsProcessed {
			t.Fatalf("row for doc %d beyond the processed prefix %d", row.Doc, tr.DocsProcessed)
		}
		seen[row.Doc] = true
	}
	for doc := range tr.DocsProcessed {
		if !seen[doc] {
			t.Fatalf("doc %d inside the processed prefix %d has no row", doc, tr.DocsProcessed)
		}
	}
	if int64(len(rows)) != tr.Matches {
		t.Fatalf("%d rows but trailer says %d matches", len(rows), tr.Matches)
	}

	// count over the corpus is all-or-nothing: same deadline, 504.
	code, body = post(t, ts, "/v1/count?corpus=big", map[string]any{
		"query": testQuery, "timeout_ms": 15})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("count under deadline = %d (%s), want 504", code, body)
	}
}

// TestCorpusReplaceNeverMixesGenerations races corpus replacement against
// enumeration: every response must be computed against exactly one
// generation — its rows all match the generation stamped in the response
// header, never a blend of two document sets. Run under -race in CI it is
// the concurrency pin for the registry swap and snapshot immutability.
func TestCorpusReplaceNeverMixesGenerations(t *testing.T) {
	ts := testServer(t, serverConfig{})
	genDocs := func(g int) []string {
		docs := make([]string, 12)
		for i := range docs {
			docs[i] = fmt.Sprintf("item g%d x", g)
		}
		return docs
	}
	if info := registerCorpus(t, ts, "flip", genDocs(1)); info.Generation != 1 {
		t.Fatalf("seed generation %d", info.Generation)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// The replacer cannot use test helpers (it may outlive an early
		// t.Fatal); failures surface as the main loop seeing a stale
		// generation forever, which the invariant tolerates.
		defer wg.Done()
		for g := 2; !stop.Load(); g++ {
			body, _ := json.Marshal(corpusRequest{Docs: genDocs(g)})
			resp, err := http.Post(ts.URL+"/v1/corpus/flip", "application/json", strings.NewReader(string(body)))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	// The trailing space anchors the capture to the whole g<digits> token,
	// so every document yields exactly one match.
	const query = `/.*!g{g[0-9]+} .*/`
	for i := 0; i < 40; i++ {
		resp := postRaw(t, ts, "/v1/enumerate?corpus=flip", map[string]any{"query": query})
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("enumerate: %d %s", resp.StatusCode, body)
		}
		hdrGen := resp.Header.Get("X-Spanners-Corpus-Generation")
		rows, tr := ndjson(t, body)
		if tr.Docs != 12 || tr.DocsProcessed != 12 {
			t.Fatalf("trailer = %+v", tr)
		}
		want := "g" + hdrGen
		for _, row := range rows {
			if got := row.Spans["g"].Text; got != want {
				t.Fatalf("response mixes generations: row says %q, header says %q", got, want)
			}
		}
		if len(rows) != 12 {
			t.Fatalf("%d rows, want one per document", len(rows))
		}
	}
}

// TestCorpusVars pins the per-corpus monitoring gauge: /debug/vars
// reports each corpus's docs and bytes, and matches_served equals the
// trailer matches of its enumerations summed; a replacement snapshot
// starts again from 0.
func TestCorpusVars(t *testing.T) {
	ts := testServer(t, serverConfig{})
	docs := corpusDocs(17)
	registerCorpus(t, ts, "mon", docs)
	corpora := func() []corpusInfo {
		t.Helper()
		vars := debugVars(t, ts)
		var cs []corpusInfo
		if err := json.Unmarshal(vars["spannerd_corpora"], &cs); err != nil {
			t.Fatalf("spannerd_corpora: %v\n%s", err, vars["spannerd_corpora"])
		}
		return cs
	}

	var matches int64
	for _, limit := range []int{0, 3} {
		code, body := post(t, ts, "/v1/enumerate?corpus=mon", map[string]any{"query": testQuery, "limit": limit})
		if code != http.StatusOK {
			t.Fatalf("enumerate: %d %s", code, body)
		}
		_, tr := ndjson(t, body)
		if tr.Matches == 0 {
			t.Fatal("test corpus produced no matches")
		}
		matches += tr.Matches
	}
	cs := corpora()
	if len(cs) != 1 || cs[0].Name != "mon" || cs[0].Generation != 1 || cs[0].Docs != len(docs) || cs[0].Bytes <= 0 {
		t.Fatalf("spannerd_corpora = %+v", cs)
	}
	if cs[0].MatchesServed != matches {
		t.Fatalf("matches_served = %d, the two trailers reported %d matches", cs[0].MatchesServed, matches)
	}

	registerCorpus(t, ts, "mon", docs)
	if cs := corpora(); len(cs) != 1 || cs[0].Generation != 2 || cs[0].MatchesServed != 0 {
		t.Fatalf("after replacement spannerd_corpora = %+v, want generation 2 with 0 served", cs)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
