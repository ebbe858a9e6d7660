// The HTTP surface of spannerd: request decoding, the enumerate/count
// handlers, and the monitoring endpoints. Everything here treats the
// request body as hostile — malformed JSON, malformed queries, oversized
// bodies and hostile nesting all map to 4xx responses, never to a crash of
// the long-lived process — and every evaluation runs under a per-request
// deadline threaded through the library's context-aware entry points.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spanners/corpus"
	"spanners/engine"
	"spanners/internal/jsonrow"
	"spanners/spanner"
	"spanners/spanner/cache"
)

// serverConfig collects the tunables main wires from flags; the zero value
// is completed by newServer.
type serverConfig struct {
	cacheEntries int
	cacheBytes   int64
	defaultMode  spanner.Mode
	maxTimeout   time.Duration // per-request ceiling and default
	maxBody      int64         // request body bound, bytes
	maxDocs      int           // documents per request
	workers      int           // engine pool size; <1 = GOMAXPROCS
	corpusLimits corpus.Limits // registration bounds
}

// server is one spannerd instance: a compiled-query cache, the corpus
// registry, plus the HTTP handlers that evaluate against them. It is
// created by newServer and safe for concurrent use.
type server struct {
	cfg     serverConfig
	cache   *cache.Cache
	corpora *corpus.Registry
	mux     *http.ServeMux

	inflight atomic.Int64 // requests currently being served; spanlint:atomic
	served   atomic.Int64 // requests completed since start; spanlint:atomic
	started  time.Time
}

func newServer(cfg serverConfig) *server {
	if cfg.maxTimeout <= 0 {
		cfg.maxTimeout = 30 * time.Second
	}
	if cfg.maxBody <= 0 {
		cfg.maxBody = 8 << 20
	}
	if cfg.maxDocs <= 0 {
		cfg.maxDocs = 1024
	}
	s := &server{
		cfg:     cfg,
		cache:   cache.New(cache.Config{MaxEntries: cfg.cacheEntries, MaxBytes: cfg.cacheBytes}),
		corpora: corpus.NewRegistry(cfg.corpusLimits),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/enumerate", s.handleEnumerate)
	s.mux.HandleFunc("POST /v1/count", s.handleCount)
	s.mux.HandleFunc("POST /v1/corpus/{name}", s.handleCorpusRegister)
	s.mux.HandleFunc("GET /v1/corpus/{name}", s.handleCorpusInfo)
	s.mux.HandleFunc("DELETE /v1/corpus/{name}", s.handleCorpusDelete)
	s.mux.HandleFunc("GET /v1/corpus", s.handleCorpusList)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	return s
}

// ServeHTTP tracks the in-flight gauge around the mux dispatch.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.served.Add(1)
	}()
	s.mux.ServeHTTP(w, r)
}

// request is the body of both POST evaluation endpoints.
type request struct {
	// Query is a query expression in the ParseQuery syntax; a plain regex
	// formula is written as a /…/ literal.
	Query string `json:"query"`
	// Docs are the documents to evaluate, fanned out across the engine
	// worker pool when there is more than one. Mutually exclusive with
	// the ?corpus= query parameter, which takes the documents of a
	// registered corpus instead.
	Docs []string `json:"docs"`
	// Mode selects the determinization mode: "lazy", "strict", or "" for
	// the server default.
	Mode string `json:"mode,omitempty"`
	// Limit caps the matches streamed per document (enumerate only;
	// 0 = no cap).
	Limit int `json:"limit,omitempty"`
	// TimeoutMS bounds this request's evaluation; 0 or anything above the
	// server ceiling means the ceiling.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Corpus is the registered corpus named by the ?corpus= URL
	// parameter; filled by decodeRequest, never part of the body.
	Corpus string `json:"-"`
}

// decodeStrict decodes exactly one JSON value from r into v, rejecting
// trailing garbage. A single dec.Decode stops at the end of the first
// value, silently ignoring a second concatenated object or junk bytes —
// for a hostile or confused client that is a request whose tail the
// server would quietly drop, so it is a client error instead. The check
// decodes a second value and demands io.EOF: concatenated JSON decodes
// (not EOF) and junk errors (not EOF), while trailing whitespace is EOF.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return errors.New("request body has trailing data after the JSON object")
	}
	return nil
}

// decodeRequest parses and validates an evaluation request — body plus the
// ?corpus= parameter — against the server bounds. A non-nil error is a
// client error; the caller maps it to a 4xx.
func (s *server) decodeRequest(w http.ResponseWriter, r *http.Request) (*request, error) {
	var req request
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, s.cfg.maxBody), &req); err != nil {
		return nil, err
	}
	req.Corpus = r.URL.Query().Get("corpus")
	if req.Query == "" {
		return nil, errors.New(`request needs a "query"`)
	}
	if req.Corpus != "" && len(req.Docs) > 0 {
		return nil, errors.New(`request supplies both "docs" and ?corpus=; they are mutually exclusive`)
	}
	if req.Corpus == "" && len(req.Docs) == 0 {
		return nil, errors.New(`request needs at least one document in "docs" (or a ?corpus= parameter)`)
	}
	if len(req.Docs) > s.cfg.maxDocs {
		return nil, fmt.Errorf("request has %d documents; this server accepts at most %d", len(req.Docs), s.cfg.maxDocs)
	}
	if req.Limit < 0 {
		return nil, errors.New(`"limit" must be non-negative`)
	}
	switch req.Mode {
	case "", "lazy", "strict":
	default:
		return nil, fmt.Errorf(`unknown "mode" %q (want "lazy" or "strict")`, req.Mode)
	}
	return &req, nil
}

func (s *server) mode(req *request) spanner.Mode {
	switch req.Mode {
	case "lazy":
		return spanner.ModeLazy
	case "strict":
		return spanner.ModeStrict
	default:
		return s.cfg.defaultMode
	}
}

// deadline derives the request context: the client's timeout_ms, clamped
// to the server ceiling (which also serves as the default). The clamp
// compares in milliseconds BEFORE converting to a Duration: a hostile
// timeout_ms like 9e15 overflows the nanosecond multiplication to a
// negative Duration, and a duration-space comparison would then pick the
// wrapped value and expire the context instantly — turning a
// "give me lots of time" request into an unconditional 504.
func (s *server) deadline(r *http.Request, req *request) (context.Context, context.CancelFunc) {
	d := s.cfg.maxTimeout
	if ms := req.TimeoutMS; ms > 0 && ms < int64(s.cfg.maxTimeout/time.Millisecond) {
		d = time.Duration(ms) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// compileCached resolves the request's spanner through the single-flight
// cache, classifying failures: a context error means this request's
// deadline (or the client hanging up) cut a join short, anything else is a
// bad query.
func (s *server) compileCached(ctx context.Context, w http.ResponseWriter, req *request) (*spanner.Spanner, bool) {
	sp, err := s.cache.Get(ctx, req.Query, s.mode(req))
	if err == nil {
		return sp, true
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("query compilation wait: %v", err))
	} else {
		writeError(w, http.StatusBadRequest, err.Error())
	}
	return nil, false
}

// batch is the documents one evaluation request runs over: the body's
// docs, or the current snapshot of the corpus it names.
type batch struct {
	docs []string
	snap *corpus.Snapshot // nil for body docs
}

func (b batch) len() int {
	if b.snap != nil {
		return b.snap.Len()
	}
	return len(b.docs)
}

// doc returns document i. A corpus document is shared with its snapshot;
// a body document is copied out of its string.
func (b batch) doc(i int) []byte {
	if b.snap != nil {
		return b.snap.Doc(i)
	}
	return []byte(b.docs[i])
}

// batch resolves req's documents. A ?corpus= name that is not registered
// is a 404, written to w; ok reports whether the request goes on.
func (s *server) batch(w http.ResponseWriter, req *request) (b batch, ok bool) {
	b.docs = req.Docs
	if req.Corpus == "" {
		return b, true
	}
	if b.snap, ok = s.corpora.Get(req.Corpus); !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no corpus registered as %q", req.Corpus))
	}
	return b, ok
}

// stamp marks a successful corpus response with the generation it was
// computed against. Headers rather than trailer fields on purpose: the
// NDJSON stream of a corpus enumeration stays byte-identical to the
// equivalent request-docs stream.
func (b batch) stamp(w http.ResponseWriter) {
	if b.snap == nil {
		return
	}
	h := w.Header()
	h.Set("X-Spanners-Corpus", b.snap.Name())
	h.Set("X-Spanners-Corpus-Generation", strconv.FormatUint(b.snap.Generation(), 10))
}

// docRows is one document's share of an enumerate response: the rows it
// has emitted so far, and the escaping state of its texts.
type docRows struct {
	n   int
	esc jsonrow.DocState
}

// appendRow appends one NDJSON line of an enumerate response to dst:
//
//	{"doc":N,"spans":{"var":{"start":S,"end":E,"text":"…"},…}}
//
// with 0-based half-open byte offsets into document N, one entry per
// variable the match assigns, keys sorted. The bytes are what
// encoding/json writes for the equivalent struct-and-map row (see package
// jsonrow), built without allocating once dst has grown. Every match
// passed for one d must come from the same document.
func (d *docRows) appendRow(dst []byte, doc int, spans *jsonrow.Spans, m *spanner.Match) []byte {
	d.n++
	dst = append(dst, `{"doc":`...)
	dst = strconv.AppendInt(dst, int64(doc), 10)
	dst = append(dst, `,"spans":`...)
	dst = spans.Append(dst, m, &d.esc)
	return append(dst, "}\n"...)
}

const (
	// flushRows is the enumerate response's flush cadence: every this
	// many rows the handler writes and flushes what it has buffered and
	// checks the deadline.
	flushRows = 256
	// writeBatch bounds the rows buffered between flush points: a
	// buffer this large is written at once, so long texts cannot grow
	// it without limit.
	writeBatch = 32 << 10
)

// rowBufs pools the enumerate responses' row buffers across requests, so
// a small response does not grow a fresh buffer from nothing each time.
// Since a buffer is written out once it reaches writeBatch bytes, its
// capacity stays near that; one a long row grew past 4*writeBatch is left
// to the collector instead.
var rowBufs sync.Pool

func getRowBuf() *[]byte {
	if v := rowBufs.Get(); v != nil {
		return v.(*[]byte)
	}
	return new([]byte)
}

func putRowBuf(b *[]byte) {
	if cap(*b) <= 4*writeBatch {
		rowBufs.Put(b)
	}
}

// trailer is the final NDJSON line of an enumerate response: the exact
// accounting of what the response contains, including how far the batch
// got when a deadline cut it short. DocsProcessed counts the documents
// whose match delivery began — engine.ProcessContext emits a strict
// input-order prefix, so those are exactly documents [0, DocsProcessed)
// and DocsProcessed + DocsSkipped == Docs always. When Error is set the
// last processed document may itself be incomplete (the deadline landed
// mid-stream); everything before it is complete.
type trailer struct {
	Trailer       bool   `json:"trailer"`
	Docs          int    `json:"docs"`
	DocsProcessed int    `json:"docs_processed"`
	DocsSkipped   int    `json:"docs_skipped"`
	Matches       int64  `json:"matches"`
	Truncated     bool   `json:"truncated,omitempty"` // some document hit the limit
	Error         string `json:"error,omitempty"`     // deadline/cancellation, if any
}

// handleEnumerate streams every match of every document as NDJSON,
// grouped by document in input order, and closes with a trailer line.
// A single document runs sp.EnumerateContext directly; more fan out
// through engine.ProcessContext, preprocessing on the worker pool. Body
// docs and corpus documents take the same paths, so a corpus response is
// byte-identical to the same documents sent in the body.
func (s *server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(w, r)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	b, ok := s.batch(w, req)
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r, req)
	defer cancel()
	sp, ok := s.compileCached(ctx, w, req)
	if !ok {
		return
	}

	b.stamp(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	tr := trailer{Docs: b.len()}
	spans := jsonrow.NewSpans(sp.Vars())
	// Rows accumulate in buf, pooled across responses, and reach w in
	// batches: at every flush point, at every document's end, before the
	// trailer, and whenever buf reaches writeBatch bytes. A failed write
	// is latched in writeErr and stops the enumeration at the next batch.
	bp := getRowBuf()
	buf := (*bp)[:0]
	defer func() { *bp = buf; putRowBuf(bp) }()
	var writeErr error
	write := func() bool {
		if len(buf) > 0 && writeErr == nil {
			_, writeErr = w.Write(buf)
		}
		buf = buf[:0]
		return writeErr == nil
	}
	// push writes the buffered rows and flushes them to the client.
	push := func() bool {
		if !write() {
			return false
		}
		flush()
		return true
	}
	emitDoc := func(doc int, m *spanner.Match, d *docRows) bool {
		if req.Limit > 0 && d.n >= req.Limit {
			// Only now is truncation a fact: a match beyond the limit
			// exists. A document with exactly limit matches ends its
			// enumeration naturally and is never flagged (the extra peek
			// costs one constant-delay step, no extra output).
			tr.Truncated = true
			return false
		}
		buf = d.appendRow(buf, doc, spans, m)
		tr.Matches++
		// The enumeration phase replays matches without touching the scan
		// loops, so every few hundred yields it checks the deadline itself
		// — and pushes the buffered rows to the client, so one document
		// with millions of matches still streams visible progress instead
		// of buffering until the document (or the response) completes.
		if tr.Matches%flushRows == 0 {
			return push() && ctx.Err() == nil
		}
		return len(buf) < writeBatch || write()
	}

	if tr.Docs == 1 {
		var d docRows
		err := sp.EnumerateContext(ctx, b.doc(0), func(m *spanner.Match) bool {
			return emitDoc(0, m, &d)
		})
		if err != nil {
			tr.Error = err.Error()
		}
		// Processed means delivery began (the batch path's emit-call
		// semantics): a deadline can land after rows were already
		// streamed, and those rows must stay inside the processed prefix.
		if err == nil || tr.Matches > 0 {
			tr.DocsProcessed = 1
		}
	} else {
		eng := engine.New(sp, engine.Workers(s.cfg.workers))
		emitted, ctxErr := eng.ProcessContext(ctx, tr.Docs,
			func(i engine.DocID) ([]byte, error) { return b.doc(int(i)), nil },
			func(i engine.DocID, ev *spanner.Evaluation, _ error) bool {
				var d docRows
				ev.Enumerate(func(m *spanner.Match) bool {
					return emitDoc(int(i), m, &d)
				})
				return push()
			})
		tr.DocsProcessed = emitted
		if ctxErr != nil {
			tr.Error = ctxErr.Error()
		}
	}
	if b.snap != nil {
		b.snap.AddServed(tr.Matches)
	}
	if !write() {
		return // the client is gone; no point writing a trailer
	}
	if tr.Error == "" {
		if err := ctx.Err(); err != nil {
			tr.Error = err.Error()
		}
	}
	tr.Trailer = true
	tr.DocsSkipped = tr.Docs - tr.DocsProcessed
	_ = json.NewEncoder(w).Encode(tr)
	flush()
}

// countResult is one document's count in a count response. Count is a
// decimal string: exact counts can exceed what JSON numbers (and uint64,
// on overflow fallback) represent faithfully.
type countResult struct {
	Count string `json:"count"`
	Exact bool   `json:"exact"`
}

// countResponse is the body of a successful count response.
type countResponse struct {
	Counts []countResult `json:"counts"`
}

// handleCount runs the Theorem 5.1 counting pass — no enumeration, no
// match materialization — over every document, body docs or a corpus
// alike, fanning batches across an ordered worker pool. Counts are always
// exact: the uint64 pass falls back to big-integer arithmetic when it
// overflows. Unlike enumerate (which streams and therefore reports partial
// progress in its trailer), count responds all-or-nothing: a deadline
// mid-batch is a 504.
func (s *server) handleCount(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(w, r)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	b, ok := s.batch(w, req)
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r, req)
	defer cancel()
	sp, ok := s.compileCached(ctx, w, req)
	if !ok {
		return
	}

	resp := countResponse{Counts: make([]countResult, b.len())}
	workers := s.cfg.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var evalErr error
	engine.Map(workers, len(resp.Counts),
		func(i int) error {
			c, err := countDoc(ctx, sp, b.doc(i))
			if err != nil {
				return err
			}
			resp.Counts[i] = c
			return nil
		},
		func(_ int, err error) bool {
			if err != nil {
				evalErr = err
				return false
			}
			return true
		})
	if evalErr != nil {
		writeError(w, http.StatusGatewayTimeout, evalErr.Error())
		return
	}
	b.stamp(w)
	writeJSON(w, http.StatusOK, resp)
}

// countDoc counts one document under ctx, exactly, in one pass that
// migrates to big-integer arithmetic only on overflow.
func countDoc(ctx context.Context, sp *spanner.Spanner, doc []byte) (countResult, error) {
	n, err := sp.CountBigContext(ctx, doc)
	if err != nil {
		return countResult{}, err
	}
	return countResult{Count: n.String(), Exact: true}, nil
}

// corpusRequest is the body of POST /v1/corpus/{name}.
type corpusRequest struct {
	// Docs are the corpus documents, in the input order every enumeration
	// of the corpus will reproduce.
	Docs []string `json:"docs"`
}

// corpusInfo describes one registered corpus on the wire, with the
// matches its enumerations have streamed (this generation).
type corpusInfo struct {
	Name          string `json:"name"`
	Generation    uint64 `json:"generation"`
	Docs          int    `json:"docs"`
	Bytes         int64  `json:"bytes"`
	MatchesServed int64  `json:"matches_served"`
}

func snapInfo(snap *corpus.Snapshot) corpusInfo {
	return corpusInfo{
		Name:          snap.Name(),
		Generation:    snap.Generation(),
		Docs:          snap.Len(),
		Bytes:         snap.Bytes(),
		MatchesServed: snap.Served(),
	}
}

// handleCorpusRegister installs (or replaces) a named corpus. Replacement
// is atomic with a monotone generation bump: requests already evaluating
// the old snapshot finish against it, never observing a mix.
func (s *server) handleCorpusRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req corpusRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, s.corpusBodyLimit()), &req); err != nil {
		writeRequestError(w, err)
		return
	}
	// The registry enforces its own document cap, but only after this
	// handler has materialized the [][]byte — and the body limit alone
	// admits millions of empty documents. Bound the count first so the
	// allocation below is never sized by an unvalidated request field.
	if max := s.corpusDocLimit(); len(req.Docs) > max {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("corpus has %d documents; this server accepts at most %d", len(req.Docs), max))
		return
	}
	docs := make([][]byte, len(req.Docs))
	for i, d := range req.Docs {
		docs[i] = []byte(d)
	}
	// One shard: the daemon evaluates a corpus on the engine pool, like
	// body docs, so the partition has nothing to do here.
	snap, err := s.corpora.Register(name, docs, 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, snapInfo(snap))
}

// corpusDocLimit mirrors the registry's per-corpus document cap so the
// registration handler can reject oversized corpora before allocating.
func (s *server) corpusDocLimit() int {
	if l := s.cfg.corpusLimits.MaxDocs; l > 0 {
		return l
	}
	return corpus.DefaultMaxDocs
}

// corpusBodyLimit bounds the registration body: the registry's byte limit
// plus headroom for JSON quoting/escaping and the envelope.
func (s *server) corpusBodyLimit() int64 {
	l := s.cfg.corpusLimits.MaxBytes
	if l <= 0 {
		l = corpus.DefaultMaxBytes
	}
	return 2*l + 4096
}

func (s *server) handleCorpusInfo(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.corpora.Get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no corpus registered as %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, snapInfo(snap))
}

func (s *server) handleCorpusDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	gen, ok := s.corpora.Delete(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no corpus registered as %q", name))
		return
	}
	// The tombstone generation: a later re-register of this name will
	// observe a strictly larger generation than anything served before.
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "generation": gen, "deleted": true})
}

func (s *server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	snaps := s.corpora.List()
	infos := make([]corpusInfo, len(snaps))
	for i, snap := range snaps {
		infos[i] = snapInfo(snap)
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpora": infos})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleVars renders the expvar-format monitoring snapshot: every var
// published in the process (memstats, cmdline, …) plus the spannerd
// gauges — cache counters, in-flight requests, and the per-query cache
// entries with their lazy-mode determinization progress. It renders
// per-instance state directly rather than expvar.Publish-ing globals, so
// tests (and future multi-instance embeddings) can run many servers in
// one process.
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var b strings.Builder
	b.WriteString("{")
	first := true
	emit := func(key, val string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(&b, "%q: %s", key, val)
	}
	expvar.Do(func(kv expvar.KeyValue) { emit(kv.Key, kv.Value.String()) })

	st := s.cache.Stats()
	emit("spannerd_cache", mustJSON(map[string]any{
		"hits":              st.Hits,
		"misses":            st.Misses,
		"evictions":         st.Evictions,
		"errors":            st.Errors,
		"entries":           st.Entries,
		"bytes":             st.Bytes,
		"inflight_compiles": st.InFlight,
	}))
	emit("spannerd_inflight_requests", fmt.Sprintf("%d", s.inflight.Load()))
	emit("spannerd_requests_served", fmt.Sprintf("%d", s.served.Load()))
	emit("spannerd_uptime_seconds", fmt.Sprintf("%.0f", time.Since(s.started).Seconds()))

	type queryVar struct {
		Query                 string `json:"query"`
		Mode                  string `json:"mode"`
		Hits                  int64  `json:"hits"`
		CostBytes             int64  `json:"cost_bytes"`
		DetStates             int    `json:"det_states"`
		Prefilter             bool   `json:"prefilter"`
		PrefilterSkippedBytes int64  `json:"prefilter_skipped_bytes"`
		PrefilterFallbacks    int64  `json:"prefilter_fallbacks"`
	}
	entries := s.cache.Entries()
	qs := make([]queryVar, len(entries))
	var pfQueries, pfSkipped, pfFallbacks int64
	for i, e := range entries {
		qs[i] = queryVar{
			Query:                 e.Query,
			Mode:                  e.Mode.String(),
			Hits:                  e.Hits,
			CostBytes:             e.Cost,
			DetStates:             e.DetStates,
			Prefilter:             e.PrefilterEnabled,
			PrefilterSkippedBytes: e.PrefilterSkippedBytes,
			PrefilterFallbacks:    e.PrefilterFallbacks,
		}
		if e.PrefilterEnabled {
			pfQueries++
		}
		pfSkipped += e.PrefilterSkippedBytes
		pfFallbacks += e.PrefilterFallbacks
	}
	emit("spannerd_prefilter", mustJSON(map[string]int64{
		"queries":       pfQueries,
		"skipped_bytes": pfSkipped,
		"fallbacks":     pfFallbacks,
	}))
	emit("spannerd_queries", mustJSON(qs))

	// Per-corpus gauges: docs, bytes and matches served, for the current
	// generation of each registered corpus.
	snaps := s.corpora.List()
	cs := make([]corpusInfo, len(snaps))
	for i, snap := range snaps {
		cs[i] = snapInfo(snap)
	}
	emit("spannerd_corpora", mustJSON(cs))
	b.WriteString("\n}\n")
	io.WriteString(w, b.String())
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// writeRequestError maps a decode/validation failure to its status:
// oversized bodies are 413, everything else — malformed JSON, malformed
// queries, bound violations — is a plain 400.
func writeRequestError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}
