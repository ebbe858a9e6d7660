// Regression pins for the PR-7 daemon bugfix sweep: hostile timeout_ms
// overflow, trailing-garbage request bodies, and the within-document flush
// cadence.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestHostileTimeoutClampsToCeiling pins the timeout_ms overflow fix: a
// huge client timeout (9e15 ms ≈ 285k years) used to wrap negative in the
// Duration multiplication, expiring the context instantly — an instant 504
// for a client asking for MORE time. It must clamp to the server ceiling
// and serve normally.
func TestHostileTimeoutClampsToCeiling(t *testing.T) {
	ts := testServer(t, serverConfig{})
	doc := "Ann <ann1@ex.org>, Bob <bob2@ex.org>"
	for _, timeout := range []int64{9000000000000000, 1 << 62, math.MaxInt64} {
		code, body := post(t, ts, "/v1/enumerate", map[string]any{
			"query": testQuery, "docs": []string{doc}, "timeout_ms": timeout,
		})
		if code != http.StatusOK {
			t.Fatalf("timeout_ms=%d: status %d: %s", timeout, code, body)
		}
		rows, tr := ndjson(t, body)
		if tr.Error != "" || tr.DocsProcessed != 1 {
			t.Fatalf("timeout_ms=%d: trailer = %+v, want a clean full response", timeout, tr)
		}
		if len(rows) != len(refMatches(t, doc)) {
			t.Fatalf("timeout_ms=%d: %d rows, want %d", timeout, len(rows), len(refMatches(t, doc)))
		}

		code, body = post(t, ts, "/v1/count", map[string]any{
			"query": testQuery, "docs": []string{doc}, "timeout_ms": timeout,
		})
		if code != http.StatusOK {
			t.Fatalf("count timeout_ms=%d: status %d (%s), want 200 under the server ceiling", timeout, code, body)
		}
	}
}

// TestTrailingGarbageRejected pins the decode fix: a body with anything
// after the JSON object — a second concatenated object (whose fields would
// silently be dropped) or junk bytes — is a 400, while trailing whitespace
// stays legal.
func TestTrailingGarbageRejected(t *testing.T) {
	ts := testServer(t, serverConfig{})
	valid := `{"query":"/!x{a+}/","docs":["aaa"]}`
	bad := []struct {
		name, body string
	}{
		{"concatenated object", valid + `{"query":"/b/","docs":["b"]}`},
		{"junk bytes", valid + `garbage`},
		{"second array", valid + ` [1,2,3]`},
		{"null after object", valid + ` null`},
	}
	for _, endpoint := range []string{"/v1/enumerate", "/v1/count"} {
		for _, tc := range bad {
			code, body := post(t, ts, endpoint, tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d (%s), want 400", endpoint, tc.name, code, body)
			}
			var eb errorBody
			if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error == "" {
				t.Errorf("%s %s: error body %q is not {\"error\":…}", endpoint, tc.name, body)
			}
		}
		if code, body := post(t, ts, endpoint, valid+"\n\t "); code != http.StatusOK {
			t.Errorf("%s trailing whitespace: status %d (%s), want 200", endpoint, code, body)
		}
	}
	// The corpus registration endpoint shares the strict decoder.
	if code, _ := post(t, ts, "/v1/corpus/c", `{"docs":["x"]}{"docs":["y"]}`); code != http.StatusBadRequest {
		t.Errorf("corpus register with concatenated body: status %d, want 400", code)
	}
}

// flushCountingWriter counts Write calls and records where each Flush
// lands in the body.
type flushCountingWriter struct {
	*httptest.ResponseRecorder
	writes  int
	flushAt []int // the body's length at each Flush
	bare    int   // Flush calls that did not follow exactly one Write
	pending int   // Write calls since the last Flush
}

func (w *flushCountingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.pending++
	return w.ResponseRecorder.Write(p)
}

func (w *flushCountingWriter) Flush() {
	if w.pending != 1 {
		w.bare++
	}
	w.pending = 0
	w.flushAt = append(w.flushAt, w.Body.Len())
	w.ResponseRecorder.Flush()
}

// TestFlushCadenceWithinDocument pins the streaming fix: one huge document
// used to buffer its entire match stream (the handler only flushed between
// documents), so a client watching a long extraction saw nothing until the
// document finished. The handler now pushes its rows, one Write and one
// Flush, whenever a batch has filled, on every path (single doc, batch,
// corpus): the first push within firstBatch bytes plus one row, and no
// later run of unflushed bytes longer than writeBatch plus one row, so a
// document with more rows than that shows several pushes inside it. Only
// the last document's rows and the trailer are written unflushed.
func TestFlushCadenceWithinDocument(t *testing.T) {
	srv := newServer(serverConfig{defaultMode: 0})
	// ~10000 matches, ~580 KB of rows, from a single document: "ab"
	// repeated.
	doc := strings.Repeat("ab", 10000)
	const query = `/.*!x{ab}.*/`

	serve := func(t *testing.T, method, target, body string) *flushCountingWriter {
		t.Helper()
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		w := &flushCountingWriter{ResponseRecorder: httptest.NewRecorder()}
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, w.Code, w.Body.String())
		}
		return w
	}
	serve(t, http.MethodPost, "/v1/corpus/cadence", fmt.Sprintf(`{"docs":[%q,%q]}`, doc, doc))

	for _, tc := range []struct {
		name, target, body string
		docs               int
	}{
		{"single doc", "/v1/enumerate", fmt.Sprintf(`{"query":%q,"docs":[%q]}`, query, doc), 1},
		{"batch", "/v1/enumerate", fmt.Sprintf(`{"query":%q,"docs":[%q,%q]}`, query, doc, doc), 2},
		{"corpus", "/v1/enumerate?corpus=cadence", fmt.Sprintf(`{"query":%q}`, query), 2},
	} {
		w := serve(t, http.MethodPost, tc.target, tc.body)
		body := w.Body.String()
		rows, tr := ndjson(t, body)
		if len(rows) < 5000*tc.docs {
			t.Fatalf("%s: test documents produced only %d rows", tc.name, len(rows))
		}
		if tr.Error != "" {
			t.Fatalf("%s: trailer = %+v", tc.name, tr)
		}
		if w.bare != 0 || w.pending > 2 {
			t.Fatalf("%s: %d flushes without exactly one write before them, %d writes after the last; want every write flushed but the last rows and the trailer",
				tc.name, w.bare, w.pending)
		}
		line := longestLine(body)
		if len(w.flushAt) == 0 || w.flushAt[0] > firstBatch+line {
			t.Fatalf("%s: first flush at %v bytes, want one within %d+%d", tc.name, w.flushAt, firstBatch, line)
		}
		prev := 0
		for _, at := range append(w.flushAt, len(body)) {
			if at-prev > writeBatch+line {
				t.Fatalf("%s: %d bytes between flushes at %d and %d; want at most one batch, %d+%d",
					tc.name, at-prev, prev, at, writeBatch, line)
			}
			prev = at
		}
		// A push inside a document lands between two of its rows.
		inside := make([]int, tc.docs)
		for _, at := range w.flushAt {
			before := body[strings.LastIndexByte(body[:at-1], '\n')+1 : at]
			after := body[at : at+strings.IndexByte(body[at:], '\n')+1]
			if d := rowDoc(t, before); d == rowDoc(t, after) {
				inside[d]++
			}
		}
		for d, n := range inside {
			if n < 2 {
				t.Fatalf("%s: document %d shows %d pushes inside it, want at least 2 (flushes at %v)", tc.name, d, n, w.flushAt)
			}
		}
	}
}

// longestLine returns the length of body's longest line, newline
// included: one row, or the trailer, at its longest.
func longestLine(body string) int {
	n := 0
	for _, l := range strings.SplitAfter(body, "\n") {
		n = max(n, len(l))
	}
	return n
}

// rowDoc returns the document of an NDJSON row, or -1 for the trailer.
func rowDoc(t *testing.T, line string) int {
	t.Helper()
	var row struct {
		Doc     *int `json:"doc"`
		Trailer bool `json:"trailer"`
	}
	if err := json.Unmarshal([]byte(line), &row); err != nil || row.Doc == nil && !row.Trailer {
		t.Fatalf("line %q is neither a row nor the trailer (%v)", line, err)
	}
	if row.Trailer {
		return -1
	}
	return *row.Doc
}

// TestEnumerateLastDocumentSharesTrailerFlush pins the end of the stream:
// every document but the last is pushed when its rows end, and the last
// document's rows and the trailer are written with no explicit flush,
// since net/http sends them with the terminating chunk when the handler
// returns. A one-document request is therefore one rows write, one
// trailer write and no flush.
func TestEnumerateLastDocumentSharesTrailerFlush(t *testing.T) {
	srv := newServer(serverConfig{defaultMode: 0})
	for _, tc := range []struct {
		docs, wantFlushes int
	}{
		{1, 0},
		{3, 2},
	} {
		docs := make([]string, tc.docs)
		for i := range docs {
			docs[i] = "xabyab"
		}
		body, _ := json.Marshal(map[string]any{"query": `/.*!x{ab}.*/`, "docs": docs})
		req := httptest.NewRequest(http.MethodPost, "/v1/enumerate", strings.NewReader(string(body)))
		w := &flushCountingWriter{ResponseRecorder: httptest.NewRecorder()}
		srv.ServeHTTP(w, req)
		rows, tr := ndjson(t, w.Body.String())
		if w.Code != http.StatusOK || len(rows) != 2*tc.docs || tr.DocsProcessed != tc.docs {
			t.Fatalf("%d docs: status %d, %d rows, trailer %+v", tc.docs, w.Code, len(rows), tr)
		}
		if len(w.flushAt) != tc.wantFlushes {
			t.Fatalf("%d docs: %d flushes, want %d", tc.docs, len(w.flushAt), tc.wantFlushes)
		}
		if tc.docs == 1 && w.writes != 2 {
			t.Fatalf("one document: %d writes, want the rows and the trailer", w.writes)
		}
	}
}

// deadClientWriter is a client that hangs up mid-stream: its Write fails
// once more than limit bytes would have been accepted. It records every
// call from the failing one on.
type deadClientWriter struct {
	*httptest.ResponseRecorder
	limit           int
	failedWrites    int // the failing Write and any after it
	bytesAfterLimit int // bytes carried by those writes
	callsAfterFail  int // Write or Flush calls after the failing one
	offered         strings.Builder
}

func (w *deadClientWriter) Write(p []byte) (int, error) {
	w.offered.Write(p)
	if w.failedWrites > 0 {
		w.callsAfterFail++
	}
	if w.failedWrites > 0 || w.Body.Len()+len(p) > w.limit {
		w.failedWrites++
		w.bytesAfterLimit += len(p)
		return 0, errors.New("client disconnected")
	}
	return w.ResponseRecorder.Write(p)
}

func (w *deadClientWriter) Flush() {
	if w.failedWrites > 0 {
		w.callsAfterFail++
	}
	w.ResponseRecorder.Flush()
}

// TestDeadClientStopsEnumeration pins the dead-client path: a write that
// fails mid-stream stops the enumeration within one batch (at most
// writeBatch bytes plus one row are offered past the last accepted byte),
// no trailer is written, and the handler returns promptly even though the
// full stream — cubic in the document — would take far longer to
// produce. On the batch path the engine's workers must unwind as well,
// leaving nothing behind.
func TestDeadClientStopsEnumeration(t *testing.T) {
	srv := newServer(serverConfig{defaultMode: 0})
	// ~10⁹ matches per document: x and y split any infix of it.
	doc := strings.Repeat("ab", 1000)
	const query = `/.*!x{.*}!y{.*}.*/`
	for _, tc := range []struct {
		name string
		docs []string
	}{
		{"single doc", []string{doc}},
		{"batch", []string{doc, doc, doc, doc}},
	} {
		base := runtime.NumGoroutine()
		body, err := json.Marshal(map[string]any{"query": query, "docs": tc.docs})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/enumerate", strings.NewReader(string(body)))
		w := &deadClientWriter{ResponseRecorder: httptest.NewRecorder(), limit: 64 << 10}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeHTTP(w, req)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the handler is still enumerating 30s after the client hung up", tc.name)
		}
		if w.failedWrites != 1 || w.callsAfterFail != 0 {
			t.Fatalf("%s: %d failed writes and %d calls after the failure; want the handler to stop at the first",
				tc.name, w.failedWrites, w.callsAfterFail)
		}
		line := longestLine(w.offered.String())
		if w.bytesAfterLimit > writeBatch+line {
			t.Fatalf("%s: %d bytes offered past the dead client; want at most one batch, %d+%d",
				tc.name, w.bytesAfterLimit, writeBatch, line)
		}
		if strings.Contains(w.offered.String(), `"trailer"`) {
			t.Fatalf("%s: a trailer was written to a dead client", tc.name)
		}
		settleGoroutines(t, base)
	}
}

// settleGoroutines waits until the goroutine count is back to base,
// failing the test if it stays above it.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
