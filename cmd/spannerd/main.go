// Command spannerd is a long-lived document-extraction service over the
// constant-delay spanner engine: clients POST a query expression plus
// documents and stream back capture mappings (NDJSON) or exact match
// counts, while the daemon amortizes compilation across requests through
// an LRU compiled-query cache with single-flight compilation.
//
//	spannerd -addr :8080
//
//	curl -s localhost:8080/v1/enumerate -d '{
//	  "query": "/.*!user{[a-z]+}@!host{[a-z.]+}.*/",
//	  "docs":  ["ann@a.example bob@b.example"],
//	  "limit": 100
//	}'
//
// Endpoints:
//
//	POST /v1/enumerate  NDJSON: one line per match, then a trailer line
//	                    accounting for documents processed/skipped.
//	                    ?corpus=name evaluates a registered corpus
//	                    instead of body docs, on the same engine pool.
//	POST /v1/count      JSON: exact per-document match counts (Theorem
//	                    5.1 counting pass; decimal strings, never
//	                    enumerating). Accepts ?corpus=name too.
//	POST /v1/corpus/{name}    register/replace a corpus: {"docs": [...]};
//	                          replacement bumps the generation atomically.
//	GET  /v1/corpus           list registered corpora.
//	GET  /v1/corpus/{name}    corpus info: docs, bytes, matches served.
//	DELETE /v1/corpus/{name}  delete (consumes a tombstone generation).
//	GET  /healthz       liveness probe.
//	GET  /debug/vars    expvar-format snapshot: cache hit/miss/eviction
//	                    counters, in-flight requests, per-query lazy
//	                    determinization progress, and per-corpus
//	                    matches served.
//
// Queries compile once per (canonical text, mode) and are reused by every
// subsequent request; by default they compile in lazy (on-the-fly
// determinization) mode, the right trade-off for a multi-tenant server
// where hostile or rarely-hit queries must not pay — or inflict — a
// worst-case subset construction at compile time. Malformed queries,
// malformed JSON and oversized bodies are client errors (4xx), never
// daemon crashes; every evaluation runs under a per-request deadline
// (timeout_ms, clamped to -max-timeout) threaded through the library's
// context-aware entry points.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spanners/corpus"
	"spanners/spanner"
	"spanners/spanner/cache"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		mode         = flag.String("mode", "lazy", `default determinization mode for queries that don't specify one ("lazy" or "strict")`)
		cacheEntries = flag.Int("cache-entries", cache.DefaultMaxEntries, "max cached compiled queries (negative = unbounded)")
		cacheBytes   = flag.Int64("cache-bytes", cache.DefaultMaxBytes, "max approximate bytes of cached compiled queries (negative = unbounded)")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Second, "per-request evaluation deadline ceiling (and default)")
		maxBody      = flag.Int64("max-body", 8<<20, "max request body size in bytes")
		maxDocs      = flag.Int("max-docs", 1024, "max documents per request")
		workers      = flag.Int("workers", 0, "engine worker-pool size per batch request (0 = GOMAXPROCS)")

		maxCorpora     = flag.Int("max-corpora", corpus.DefaultMaxCorpora, "max registered corpora")
		maxCorpusDocs  = flag.Int("max-corpus-docs", corpus.DefaultMaxDocs, "max documents per registered corpus")
		maxCorpusBytes = flag.Int64("max-corpus-bytes", corpus.DefaultMaxBytes, "max raw document bytes per registered corpus")
	)
	flag.Parse()

	var m spanner.Mode
	switch *mode {
	case "lazy":
		m = spanner.ModeLazy
	case "strict":
		m = spanner.ModeStrict
	default:
		fmt.Fprintf(os.Stderr, "spannerd: -mode must be lazy or strict, got %q\n", *mode)
		os.Exit(2)
	}

	srv := newServer(serverConfig{
		cacheEntries: *cacheEntries,
		cacheBytes:   *cacheBytes,
		defaultMode:  m,
		maxTimeout:   *maxTimeout,
		maxBody:      *maxBody,
		maxDocs:      *maxDocs,
		workers:      *workers,
		corpusLimits: corpus.Limits{
			MaxCorpora: *maxCorpora,
			MaxDocs:    *maxCorpusDocs,
			MaxBytes:   *maxCorpusBytes,
		},
	})
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Response streaming is bounded by the per-request evaluation
		// deadline, so the write timeout only needs headroom above it.
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *maxTimeout + 30*time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("spannerd: listening on %s (mode=%s, cache: %d entries / %d bytes)",
			*addr, m, *cacheEntries, *cacheBytes)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		log.Print("spannerd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("spannerd: shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("spannerd: %v", err)
		}
	}
}
