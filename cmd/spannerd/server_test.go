package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spanners/internal/gen"
	"spanners/spanner"
)

func testServer(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	// Mirror the daemon's -mode default; requests opt into strict per call.
	cfg.defaultMode = spanner.ModeLazy
	ts := httptest.NewServer(newServer(cfg))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// jsonSpan is one variable binding on the wire: 0-based half-open byte
// offsets into the document, plus the covered text.
type jsonSpan struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

// matchRow is one NDJSON match line of an enumerate response, decoded;
// encoding one with encoding/json is the reference rendering appendRow
// must reproduce byte for byte.
type matchRow struct {
	Doc   int                 `json:"doc"`
	Spans map[string]jsonSpan `json:"spans"`
}

// ndjson splits an enumerate response into match rows and the trailer,
// asserting the trailer is the last line.
func ndjson(t *testing.T, body string) ([]matchRow, trailer) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var rows []matchRow
	var tr trailer
	for i, line := range lines {
		if strings.Contains(line, `"trailer":true`) {
			if i != len(lines)-1 {
				t.Fatalf("trailer is line %d of %d, want last", i+1, len(lines))
			}
			if err := json.Unmarshal([]byte(line), &tr); err != nil {
				t.Fatalf("trailer %q: %v", line, err)
			}
			return rows, tr
		}
		var row matchRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	t.Fatalf("no trailer line in response:\n%s", body)
	return nil, tr
}

const testQuery = `/.*!name{[A-Z][a-z]+} <(!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*/`

// refMatches evaluates the same query through the library directly — the
// ground truth the wire format must reproduce.
func refMatches(t *testing.T, doc string) []map[string]jsonSpan {
	t.Helper()
	return refMatchesOf(t, testQuery, doc)
}

// refMatchesOf is refMatches for any query, compiled in the test server's
// default (lazy) mode.
func refMatchesOf(t *testing.T, query, doc string) []map[string]jsonSpan {
	t.Helper()
	q, err := spanner.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := q.Compile(spanner.WithLazy())
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]jsonSpan
	sp.Enumerate([]byte(doc), func(m *spanner.Match) bool {
		out = append(out, bindingsOf(m))
		return true
	})
	return out
}

func TestEnumerateSingleDoc(t *testing.T) {
	ts := testServer(t, serverConfig{})
	doc := string(gen.Figure1Doc())
	code, body := post(t, ts, "/v1/enumerate", map[string]any{
		"query": testQuery,
		"docs":  []string{doc},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows, tr := ndjson(t, body)
	want := refMatches(t, doc)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(rows), len(want), body)
	}
	for i, row := range rows {
		if row.Doc != 0 {
			t.Fatalf("row %d: doc = %d, want 0", i, row.Doc)
		}
		if fmt.Sprint(row.Spans) != fmt.Sprint(want[i]) {
			t.Fatalf("row %d spans = %v, want %v", i, row.Spans, want[i])
		}
	}
	if tr.Docs != 1 || tr.DocsProcessed != 1 || tr.DocsSkipped != 0 ||
		tr.Matches != int64(len(want)) || tr.Truncated || tr.Error != "" {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestEnumerateBatch(t *testing.T) {
	ts := testServer(t, serverConfig{})
	docs := []string{
		string(gen.Contacts(5, 1)),
		"no matches here",
		string(gen.Contacts(8, 2)),
		"",
		string(gen.Figure1Doc()),
	}
	code, body := post(t, ts, "/v1/enumerate", map[string]any{
		"query": testQuery,
		"docs":  docs,
		"mode":  "strict",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows, tr := ndjson(t, body)

	var want []string
	for i, doc := range docs {
		for _, m := range refMatches(t, doc) {
			want = append(want, fmt.Sprintf("%d:%v", i, m))
		}
	}
	var got []string
	lastDoc := 0
	for _, row := range rows {
		if row.Doc < lastDoc {
			t.Fatalf("rows out of document order: %d after %d", row.Doc, lastDoc)
		}
		lastDoc = row.Doc
		got = append(got, fmt.Sprintf("%d:%v", row.Doc, row.Spans))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("batch rows diverge from serial reference\ngot  %v\nwant %v", got, want)
	}
	if tr.Docs != 5 || tr.DocsProcessed != 5 || tr.DocsSkipped != 0 || tr.Matches != int64(len(want)) {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestEnumerateLimit(t *testing.T) {
	ts := testServer(t, serverConfig{})
	doc := string(gen.Contacts(50, 7))
	all := refMatches(t, doc)
	if len(all) < 3 {
		t.Fatal("test document too small")
	}
	code, body := post(t, ts, "/v1/enumerate", map[string]any{
		"query": testQuery,
		"docs":  []string{doc, doc},
		"limit": 2,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows, tr := ndjson(t, body)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 2 per document", len(rows))
	}
	if !tr.Truncated || tr.Matches != 4 || tr.DocsProcessed != 2 {
		t.Fatalf("trailer = %+v", tr)
	}

	// A limit the documents exactly meet omits nothing, so the trailer
	// must not claim truncation.
	code, body = post(t, ts, "/v1/enumerate", map[string]any{
		"query": testQuery,
		"docs":  []string{doc},
		"limit": len(all),
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	rows, tr = ndjson(t, body)
	if len(rows) != len(all) || tr.Truncated {
		t.Fatalf("exactly-at-limit: %d rows, trailer = %+v; nothing was omitted", len(rows), tr)
	}
}

func TestCount(t *testing.T) {
	ts := testServer(t, serverConfig{})
	docs := []string{string(gen.Contacts(20, 3)), "nothing", string(gen.Figure1Doc())}
	code, body := post(t, ts, "/v1/count", map[string]any{
		"query": testQuery,
		"docs":  docs,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp countResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Counts) != len(docs) {
		t.Fatalf("%d counts, want %d", len(resp.Counts), len(docs))
	}
	for i, doc := range docs {
		want := fmt.Sprintf("%d", len(refMatches(t, doc)))
		if resp.Counts[i].Count != want || !resp.Counts[i].Exact {
			t.Fatalf("doc %d: count = %+v, want exact %s", i, resp.Counts[i], want)
		}
	}
}

// TestHostileRequestsAre4xxAndServerSurvives is the daemon half of the
// untrusted-input satellite: every malformed body — including hostile
// deeply-nested queries that would have overflowed the parser stack — maps
// to a 4xx, and the daemon keeps serving afterwards.
func TestHostileRequestsAre4xxAndServerSurvives(t *testing.T) {
	ts := testServer(t, serverConfig{maxBody: 1 << 20, maxDocs: 4})
	okDoc := []string{"x"}
	cases := []struct {
		name string
		body any
		code int
	}{
		{"not json", `{"query`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"no query", map[string]any{"docs": okDoc}, http.StatusBadRequest},
		{"no docs", map[string]any{"query": "/a/"}, http.StatusBadRequest},
		{"unknown field", map[string]any{"query": "/a/", "docs": okDoc, "nope": 1}, http.StatusBadRequest},
		{"bad mode", map[string]any{"query": "/a/", "docs": okDoc, "mode": "eager"}, http.StatusBadRequest},
		{"negative limit", map[string]any{"query": "/a/", "docs": okDoc, "limit": -1}, http.StatusBadRequest},
		{"too many docs", map[string]any{"query": "/a/", "docs": []string{"a", "b", "c", "d", "e"}}, http.StatusBadRequest},
		{"malformed query", map[string]any{"query": "union(/a/", "docs": okDoc}, http.StatusBadRequest},
		{"unbound projection", map[string]any{"query": "project[zz](/a/)", "docs": okDoc}, http.StatusBadRequest},
		{"hostile deep query", map[string]any{
			"query": strings.Repeat("union(/a/, ", 40000) + "/b/" + strings.Repeat(")", 40000),
			"docs":  okDoc}, http.StatusBadRequest},
		{"hostile deep pattern", map[string]any{
			"query": "/" + strings.Repeat("(", 40000) + "a" + strings.Repeat(")", 40000) + "/",
			"docs":  okDoc}, http.StatusBadRequest},
		{"oversized body", map[string]any{
			"query": "/a/", "docs": []string{strings.Repeat("x", 2<<20)}}, http.StatusRequestEntityTooLarge},
	}
	for _, endpoint := range []string{"/v1/enumerate", "/v1/count"} {
		for _, tc := range cases {
			code, body := post(t, ts, endpoint, tc.body)
			if code != tc.code {
				t.Errorf("%s %s: status %d, want %d (%s)", endpoint, tc.name, code, tc.code, body)
			}
			var eb errorBody
			if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error == "" {
				t.Errorf("%s %s: error body %q is not {\"error\":…}", endpoint, tc.name, body)
			}
		}
	}
	// The daemon survived all of it.
	code, body := post(t, ts, "/v1/enumerate", map[string]any{"query": "/!x{a+}/", "docs": []string{"aaa"}})
	if code != http.StatusOK {
		t.Fatalf("server unhealthy after hostile inputs: %d %s", code, body)
	}
	if rows, _ := ndjson(t, body); len(rows) == 0 {
		t.Fatal("no matches after hostile inputs")
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	ts := testServer(t, serverConfig{})
	if resp, err := http.Get(ts.URL + "/v1/enumerate"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/enumerate = %d, want 405", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/nope"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := testServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestDeadlinePartialResponse pins the partial-response accounting: a
// deadline landing mid-batch yields a trailer whose error is set, whose
// processed/skipped split is exact, and whose rows cover exactly the
// processed document prefix. The deadline passes once the client has
// received the rows of about two and a half documents.
func TestDeadlinePartialResponse(t *testing.T) {
	s := newServer(serverConfig{defaultMode: spanner.ModeLazy})
	doc := string(gen.Contacts(4000, 9)) // ~100 KiB per document
	docs := make([]string, 48)
	for i := range docs {
		docs[i] = doc
	}
	k := 5 * len(refMatches(t, doc)) / 2
	rows, tr := enumerateUntilDeadline(t, s, "/v1/enumerate", map[string]any{"query": testQuery, "docs": docs}, k)
	if tr.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("trailer error %q, want %q", tr.Error, context.DeadlineExceeded)
	}
	if tr.DocsProcessed+tr.DocsSkipped != tr.Docs || tr.Docs != len(docs) {
		t.Fatalf("inconsistent accounting: %+v", tr)
	}
	if tr.DocsSkipped == 0 {
		t.Fatalf("deadline reported but nothing skipped: %+v", tr)
	}
	for _, row := range rows {
		if row.Doc >= tr.DocsProcessed {
			t.Fatalf("row for doc %d beyond the processed prefix %d", row.Doc, tr.DocsProcessed)
		}
	}
	if int64(len(rows)) != tr.Matches {
		t.Fatalf("%d rows but trailer says %d matches", len(rows), tr.Matches)
	}

	// count is all-or-nothing: the same deadline is a 504.
	code, body := countPastDeadline(t, s, "/v1/count", map[string]any{"query": testQuery, "docs": docs})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("count under deadline = %d (%s), want 504", code, body)
	}
}

// debugVars fetches and decodes /debug/vars.
func debugVars(t *testing.T, ts *httptest.Server) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars = %d", resp.StatusCode)
	}
	vars := make(map[string]json.RawMessage)
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	return vars
}

// TestCacheReuseAndVars pins compiled-query reuse across requests and its
// visibility in /debug/vars: concurrent identical requests compile once
// (single-flight through the cache), and the per-query vars expose the
// shared lazy spanner's determinization progress.
func TestCacheReuseAndVars(t *testing.T) {
	ts := testServer(t, serverConfig{})
	doc := string(gen.Contacts(10, 4))

	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := post(t, ts, "/v1/enumerate", map[string]any{
				"query": testQuery, "docs": []string{doc}})
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, body)
			}
		}()
	}
	wg.Wait()

	vars := debugVars(t, ts)
	var cacheStats struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	}
	if err := json.Unmarshal(vars["spannerd_cache"], &cacheStats); err != nil {
		t.Fatal(err)
	}
	if cacheStats.Misses != 1 || cacheStats.Entries != 1 {
		t.Fatalf("cache stats = %+v: %d identical requests must compile exactly once", cacheStats, clients)
	}
	if cacheStats.Hits != clients-1 {
		t.Fatalf("cache stats = %+v, want %d hits", cacheStats, clients-1)
	}

	var queries []struct {
		Query     string `json:"query"`
		Mode      string `json:"mode"`
		DetStates int    `json:"det_states"`
		Prefilter bool   `json:"prefilter"`
		Skipped   int64  `json:"prefilter_skipped_bytes"`
	}
	if err := json.Unmarshal(vars["spannerd_queries"], &queries); err != nil {
		t.Fatal(err)
	}
	if len(queries) != 1 || queries[0].Mode != "lazy" {
		t.Fatalf("spannerd_queries = %+v", queries)
	}
	if queries[0].DetStates == 0 {
		t.Fatal("lazy determinization progress not visible in /debug/vars")
	}
	if !queries[0].Prefilter || queries[0].Skipped == 0 {
		t.Fatalf("spannerd_queries = %+v: prefilter activity not visible in /debug/vars", queries)
	}
	var pf struct {
		Queries      int64 `json:"queries"`
		SkippedBytes int64 `json:"skipped_bytes"`
		Fallbacks    int64 `json:"fallbacks"`
	}
	if err := json.Unmarshal(vars["spannerd_prefilter"], &pf); err != nil {
		t.Fatal(err)
	}
	if pf.Queries != 1 || pf.SkippedBytes != queries[0].Skipped {
		t.Fatalf("spannerd_prefilter = %+v, per-query skipped %d", pf, queries[0].Skipped)
	}
	if _, ok := vars["spannerd_inflight_requests"]; !ok {
		t.Fatal("spannerd_inflight_requests missing")
	}
}

// TestConcurrentMixedLoad is the acceptance-criterion smoke: concurrent
// enumerate and count requests over distinct and shared queries, with
// monitoring reads interleaved, all against one daemon. Run under -race
// in CI it doubles as the server-level concurrency test for the shared
// lazy spanners.
func TestConcurrentMixedLoad(t *testing.T) {
	ts := testServer(t, serverConfig{})
	queries := []string{
		testQuery,
		`/.*!ip{\d+\.\d+\.\d+\.\d+}.*/`,
		`project[name](/` + gen.Figure1Pattern() + `/)`,
		`union(/!x{a+}/, /!x{b+}/)`,
	}
	docs := [][]string{
		{string(gen.Contacts(30, 1))},
		{string(gen.LogDoc(40, 2)), string(gen.LogDoc(40, 3))},
		{string(gen.Figure1Doc())},
		{"aaabbb", "ab", ""},
	}

	var wg sync.WaitGroup
	for c := 0; c < 24; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q := queries[c%len(queries)]
			d := docs[c%len(docs)]
			for i := 0; i < 4; i++ {
				switch (c + i) % 3 {
				case 0:
					code, body := post(t, ts, "/v1/enumerate", map[string]any{"query": q, "docs": d})
					if code != http.StatusOK {
						t.Errorf("enumerate: %d %s", code, body)
						return
					}
					ndjson(t, body)
				case 1:
					code, body := post(t, ts, "/v1/count", map[string]any{"query": q, "docs": d})
					if code != http.StatusOK {
						t.Errorf("count: %d %s", code, body)
						return
					}
				default:
					debugVars(t, ts)
				}
			}
		}(c)
	}
	wg.Wait()

	// Quiesced: the in-flight gauge must read zero.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var inflight int64
		if err := json.Unmarshal(debugVars(t, ts)["spannerd_inflight_requests"], &inflight); err != nil {
			t.Fatal(err)
		}
		if inflight == 1 { // the /debug/vars request itself
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight gauge stuck at %d", inflight)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
