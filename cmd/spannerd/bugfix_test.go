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

// flushCountingWriter counts Write and Flush calls and the rows written
// since the last flush, recording the largest unflushed run.
type flushCountingWriter struct {
	*httptest.ResponseRecorder
	writes          int
	flushes         int
	rowsSinceFlush  int
	maxRunUnflushed int
}

func (w *flushCountingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.rowsSinceFlush += strings.Count(string(p), "\n")
	if w.rowsSinceFlush > w.maxRunUnflushed {
		w.maxRunUnflushed = w.rowsSinceFlush
	}
	return w.ResponseRecorder.Write(p)
}

func (w *flushCountingWriter) Flush() {
	w.flushes++
	w.rowsSinceFlush = 0
	w.ResponseRecorder.Flush()
}

// TestFlushCadenceWithinDocument pins the streaming fix: one huge document
// used to buffer its entire match stream (the handler only flushed between
// documents), so a client watching a long extraction saw nothing until the
// document finished. The handler now flushes every 256 rows inside a
// document, on every path (single doc, batch, corpus). Between flushes it
// coalesces rows into few writes: one per flush, plus one per 32 KiB of
// buffered rows, plus the trailer.
func TestFlushCadenceWithinDocument(t *testing.T) {
	srv := newServer(serverConfig{defaultMode: 0})
	// ~3000 matches from a single document: "ab" repeated.
	doc := strings.Repeat("ab", 3000)
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
	}{
		{"single doc", "/v1/enumerate", fmt.Sprintf(`{"query":%q,"docs":[%q]}`, query, doc)},
		{"batch", "/v1/enumerate", fmt.Sprintf(`{"query":%q,"docs":[%q,%q]}`, query, doc, doc)},
		{"corpus", "/v1/enumerate?corpus=cadence", fmt.Sprintf(`{"query":%q}`, query)},
	} {
		w := serve(t, http.MethodPost, tc.target, tc.body)
		rows, tr := ndjson(t, w.Body.String())
		if len(rows) < 1000 {
			t.Fatalf("%s: test document produced only %d rows", tc.name, len(rows))
		}
		if tr.Error != "" {
			t.Fatalf("%s: trailer = %+v", tc.name, tr)
		}
		if w.flushes < 4 {
			t.Fatalf("%s: %d flushes, want the 256-row cadence (≥4)", tc.name, w.flushes)
		}
		if w.maxRunUnflushed > 300 {
			t.Fatalf("%s: longest unflushed run is %d rows; the 256-row cadence must bound it", tc.name, w.maxRunUnflushed)
		}
		if limit := w.flushes + (w.Body.Len()+writeBatch-1)/writeBatch + 1; w.writes > limit {
			t.Fatalf("%s: %d writes for %d flushes and %d bytes, want at most %d: rows must be coalesced",
				tc.name, w.writes, w.flushes, w.Body.Len(), limit)
		}
	}
}

// TestEnumerateLastDocumentSharesTrailerFlush pins the end of the stream:
// every document but the last is flushed when its rows end, and the last
// document's rows go out with the trailer in one flush. A one-document
// request is therefore one rows write, one trailer write and one flush.
func TestEnumerateLastDocumentSharesTrailerFlush(t *testing.T) {
	srv := newServer(serverConfig{defaultMode: 0})
	for _, tc := range []struct {
		docs, wantFlushes int
	}{
		{1, 1},
		{3, 3},
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
		if w.flushes != tc.wantFlushes {
			t.Fatalf("%d docs: %d flushes, want %d", tc.docs, w.flushes, tc.wantFlushes)
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
	limit          int
	failedWrites   int // the failing Write and any after it
	rowsAfterLimit int // rows carried by those writes
	callsAfterFail int // Write or Flush calls after the failing one
	offered        strings.Builder
}

func (w *deadClientWriter) Write(p []byte) (int, error) {
	w.offered.Write(p)
	if w.failedWrites > 0 {
		w.callsAfterFail++
	}
	if w.failedWrites > 0 || w.Body.Len()+len(p) > w.limit {
		w.failedWrites++
		w.rowsAfterLimit += strings.Count(string(p), "\n")
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
// fails mid-stream stops the enumeration within one batch (at most 256
// rows are rendered past the last accepted byte), no trailer is written,
// and the handler returns promptly even though the full stream — cubic in
// the document — would take far longer to produce. On the batch path the
// engine's workers must unwind as well, leaving nothing behind.
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
		if w.rowsAfterLimit > 256 {
			t.Fatalf("%s: %d rows rendered past the dead client; want at most one batch (256)", tc.name, w.rowsAfterLimit)
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
