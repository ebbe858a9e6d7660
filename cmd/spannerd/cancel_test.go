package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// cancelWriter is a ResponseWriter that cancels the request's context
// once it has received k rows: a cut that lands at a fixed point of the
// response, where a timeout_ms races the clock.
type cancelWriter struct {
	*httptest.ResponseRecorder
	k, rows int
	cancel  context.CancelFunc
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	w.rows += bytes.Count(p, []byte(`{"doc":`))
	if w.rows >= w.k {
		w.cancel()
	}
	return w.ResponseRecorder.Write(p)
}

// deadlineCtx is a request context whose deadline the test trips by
// hand: after expire, Done is closed and Err reports
// context.DeadlineExceeded. Its AfterFunc method lets context.WithTimeout
// register the handler's derived context with it directly, so expire
// cancels that context before it returns rather than from a goroutine
// watching Done: the handler's next check sees the deadline at a fixed
// point of the response.
type deadlineCtx struct {
	context.Context // Deadline and Value: none
	done            chan struct{}

	mu    sync.Mutex
	err   error
	after map[*func()]bool // registered and neither run nor stopped
}

func newDeadlineCtx() *deadlineCtx {
	return &deadlineCtx{Context: context.Background(), done: make(chan struct{}), after: make(map[*func()]bool)}
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.done }

func (c *deadlineCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// AfterFunc runs f once the deadline is tripped (at once, if it was), as
// context.AfterFunc does; stop keeps a pending f from running.
func (c *deadlineCtx) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	c.after[&f] = true
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		pending := c.after[&f]
		delete(c.after, &f)
		return pending
	}
}

// expire trips the deadline and runs the registered functions.
func (c *deadlineCtx) expire() {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = context.DeadlineExceeded
	close(c.done)
	after := c.after
	c.after = nil
	c.mu.Unlock()
	for f := range after {
		(*f)()
	}
}

// enumerateUntilDeadline serves an enumerate request for target and body
// in process, under a request context whose deadline passes once the
// response has carried k rows, and returns the response's rows and
// trailer.
func enumerateUntilDeadline(t *testing.T, s *server, target string, body any, k int) ([]matchRow, trailer) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newDeadlineCtx()
	r := httptest.NewRequest("POST", target, bytes.NewReader(b)).WithContext(ctx)
	w := &cancelWriter{ResponseRecorder: httptest.NewRecorder(), k: k, cancel: ctx.expire}
	s.ServeHTTP(w, r)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if w.rows < k {
		t.Fatalf("the response carried %d rows, never reaching k = %d", w.rows, k)
	}
	return ndjson(t, w.Body.String())
}

// countPastDeadline serves a count request in process under a request
// context whose deadline has already passed, and returns its status.
func countPastDeadline(t *testing.T, s *server, target string, body any) (int, string) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newDeadlineCtx()
	ctx.expire()
	r := httptest.NewRequest("POST", target, bytes.NewReader(b)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w.Code, w.Body.String()
}

// TestCancelledEnumerateAccounting cancels /v1/enumerate requests after
// their k-th row and checks the trailer's accounting: it counts exactly
// the rows the client received, its processed and skipped documents
// cover the batch, every row lies inside the processed prefix, and it
// names the cancellation. k is the first row, the first flush point, and
// a document boundary; batches hold one document or several.
func TestCancelledEnumerateAccounting(t *testing.T) {
	one := []string{string(gen.Contacts(700, 3))}
	var many []string
	for i := range 32 {
		many = append(many, string(gen.Contacts(12, int64(i+1))))
	}
	matches := func(docs []string) (per []int, total int) {
		for _, d := range docs {
			per = append(per, len(refMatches(t, d)))
			total += per[len(per)-1]
		}
		return per, total
	}
	onePer, oneTotal := matches(one)
	manyPer, _ := matches(many)
	if oneTotal <= 2*flushRows || oneTotal%flushRows == 0 {
		t.Fatalf("one-document batch has %d matches; want more than %d, not a multiple of %d", oneTotal, 2*flushRows, flushRows)
	}
	for i, n := range manyPer {
		if n == 0 || n >= flushRows {
			t.Fatalf("document %d of the multi-document batch has %d matches; want 1..%d", i, n, flushRows-1)
		}
	}
	boundary := manyPer[0] + manyPer[1] // the end of document 1

	for _, tc := range []struct {
		name string
		docs []string
		k    int
		// atBoundary: the cut lands where a document ends, so the trailer
		// must hold exactly the rows before it and the documents up to it.
		atBoundary bool
		docsBefore int
	}{
		{"one/k=1", one, 1, false, 0},
		{fmt.Sprintf("one/k=%d", flushRows), one, flushRows, false, 0},
		{"one/k=end", one, onePer[0], true, 1},
		{"many/k=1", many, 1, false, 0},
		{fmt.Sprintf("many/k=%d", flushRows), many, flushRows, false, 0},
		{"many/k=boundary", many, boundary, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(serverConfig{defaultMode: spanner.ModeLazy, workers: 2})
			body, err := json.Marshal(map[string]any{"query": testQuery, "docs": tc.docs})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := httptest.NewRequest("POST", "/v1/enumerate", bytes.NewReader(body)).WithContext(ctx)
			w := &cancelWriter{ResponseRecorder: httptest.NewRecorder(), k: tc.k, cancel: cancel}
			s.handleEnumerate(w, r)

			if w.Code != 200 {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			rows, tr := ndjson(t, w.Body.String())
			if w.rows < tc.k {
				t.Fatalf("the response carried %d rows, never reaching k = %d", w.rows, tc.k)
			}
			if int64(len(rows)) != tr.Matches || len(rows) != w.rows {
				t.Fatalf("trailer says %d matches; %d rows parsed, %d received", tr.Matches, len(rows), w.rows)
			}
			if tr.Docs != len(tc.docs) || tr.DocsProcessed+tr.DocsSkipped != tr.Docs {
				t.Fatalf("inconsistent accounting: %+v", tr)
			}
			for _, row := range rows {
				if row.Doc >= tr.DocsProcessed {
					t.Fatalf("row for doc %d beyond the processed prefix %d", row.Doc, tr.DocsProcessed)
				}
			}
			if tr.Error != context.Canceled.Error() {
				t.Fatalf("trailer error %q, want %q", tr.Error, context.Canceled)
			}
			if tc.atBoundary && (len(rows) != tc.k || tr.DocsProcessed != tc.docsBefore) {
				t.Fatalf("cut at a document boundary: %d rows over %d documents, want %d over %d",
					len(rows), tr.DocsProcessed, tc.k, tc.docsBefore)
			}
		})
	}
}
