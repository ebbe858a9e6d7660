// Package cache is a compiled-query cache for serving workloads: an LRU of
// compiled *spanner.Spanner keyed by canonical query text, with
// single-flight compilation so a thundering herd on one query compiles it
// exactly once.
//
// Keys are canonical: the source is parsed with spanner.ParseQuery and the
// key is the tree's canonical rendering (Query.String, the same syntax
// Pattern() of a compiled query emits), so syntactic variants — whitespace,
// escaping choices like /\d/ vs /\\d/ — of the same query share one entry.
// The determinization mode is part of the key: a query compiled lazily and
// strictly yields two independent spanners.
//
// The cache is bounded both by entry count and by an approximate byte cost
// (dense dispatch tables dominate strict-mode spanners; automaton sizes
// stand in for the rest), evicting least-recently-used entries when either
// bound is exceeded. Hit, miss, eviction and compile-error counters plus a
// per-entry snapshot (Entries) feed monitoring endpoints such as spannerd's
// /debug/vars.
package cache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"spanners/internal/eva"
	"spanners/spanner"
)

// DefaultMaxEntries bounds the entry count when Config.MaxEntries is zero.
const DefaultMaxEntries = 256

// DefaultMaxBytes bounds the approximate resident cost when
// Config.MaxBytes is zero: 64 MiB.
const DefaultMaxBytes = 64 << 20

// Config parameterizes New. The zero value is a usable production default.
type Config struct {
	// MaxEntries bounds the number of cached spanners (DefaultMaxEntries
	// when zero; negative means unbounded).
	MaxEntries int
	// MaxBytes bounds the total approximate cost of the cached spanners
	// (DefaultMaxBytes when zero; negative means unbounded). A single entry
	// costing more than the bound is still cached — the bound then evicts
	// everything else — so one huge query cannot render the cache useless
	// by being refused over and over.
	MaxBytes int64
	// Compile overrides how a parsed query is compiled; nil means
	// q.Compile(spanner.WithMode(mode)). Tests inject counters here to pin
	// the single-flight contract.
	Compile func(q *spanner.Query, mode spanner.Mode) (*spanner.Spanner, error)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 // Get served from the cache or by joining a flight
	Misses    int64 // Get had to start a compilation
	Evictions int64 // entries dropped by the LRU bounds
	Errors    int64 // compilations that failed (never cached)
	Entries   int   // resident entries
	Bytes     int64 // approximate resident cost
	InFlight  int   // compilations running right now
}

// EntryInfo describes one resident entry, for monitoring surfaces.
type EntryInfo struct {
	// Query is the canonical query text (ParseQuery syntax).
	Query string
	Mode  spanner.Mode
	// Hits counts Gets served by this entry since it was compiled.
	Hits int64
	// Cost is the entry's approximate byte cost.
	Cost int64
	// DetStates is the spanner's deterministic state count: fixed for
	// strict entries, the states discovered so far for lazy ones (it grows
	// as the shared spanner evaluates documents).
	DetStates int
	// PrefilterEnabled reports whether the entry's scans skip inert bytes
	// (Stats.PrefilterEnabled); SkippedBytes and Fallbacks are its lifetime
	// skip counters (bytes bulk-skipped, density-fallback activations).
	PrefilterEnabled      bool
	PrefilterSkippedBytes int64
	PrefilterFallbacks    int64
}

// Cache is a bounded, goroutine-safe compiled-query cache. Create it with
// New.
type Cache struct {
	maxEntries int
	maxBytes   int64
	compile    func(*spanner.Query, spanner.Mode) (*spanner.Spanner, error)

	mu      sync.Mutex
	lru     *list.List // of *entry; front = most recently used
	byKey   map[string]*list.Element
	flights map[string]*flight
	bytes   int64

	hits, misses, evictions, errors atomic.Int64
}

type entry struct {
	key   string // mode-qualified canonical key
	canon string // canonical query text
	mode  spanner.Mode
	s     *spanner.Spanner
	cost  int64
	hits  atomic.Int64
}

// flight is one in-progress compilation; concurrent Gets for the same key
// join it instead of compiling again.
type flight struct {
	done chan struct{} // closed when s/err are final
	s    *spanner.Spanner
	err  error
}

// New returns an empty cache with the given bounds.
func New(cfg Config) *Cache {
	c := &Cache{
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
		compile:    cfg.Compile,
		lru:        list.New(),
		byKey:      make(map[string]*list.Element),
		flights:    make(map[string]*flight),
	}
	if c.maxEntries == 0 {
		c.maxEntries = DefaultMaxEntries
	}
	if c.maxBytes == 0 {
		c.maxBytes = DefaultMaxBytes
	}
	if c.compile == nil {
		c.compile = func(q *spanner.Query, mode spanner.Mode) (*spanner.Spanner, error) {
			return q.Compile(spanner.WithMode(mode))
		}
	}
	return c
}

// Canonicalize parses src and returns the canonical query text the cache
// keys on. It is the parse the cache itself performs, so servers can call
// it up front to reject malformed queries (a parse error here is a client
// error, never a cache state change).
func Canonicalize(src string) (string, error) {
	q, err := spanner.ParseQuery(src)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}

// Get returns the compiled spanner for src in the given determinization
// mode, compiling and caching it on first use. Concurrent Gets for the
// same canonical query single-flight: exactly one compilation runs, the
// rest wait for it (or for their context). A parse or compile error is
// returned without caching anything; ctx cancels only the wait of a
// joining caller — the winning compilation always runs to completion so
// its result is available to the next request.
//
// The returned *Spanner is shared: it is goroutine-safe (see the spanner
// package's lazy-mode concurrency contract) and must not be assumed
// private to the caller.
func (c *Cache) Get(ctx context.Context, src string, mode spanner.Mode) (*spanner.Spanner, error) {
	q, err := spanner.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	key := mode.String() + "\x00" + q.String()

	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*entry)
		e.hits.Add(1)
		c.hits.Add(1)
		c.mu.Unlock()
		return e.s, nil
	}
	if f, ok := c.flights[key]; ok {
		// Someone is already compiling this query: join their flight.
		c.hits.Add(1)
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.s, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses.Add(1)
	c.mu.Unlock()

	s, err := c.runCompile(q, mode)

	c.mu.Lock()
	delete(c.flights, key)
	f.s, f.err = s, err
	close(f.done)
	if err != nil {
		c.errors.Add(1)
		c.mu.Unlock()
		return nil, err
	}
	// A racing Purge ran between unlock and here at worst; insertion is
	// still correct (the entry is simply fresh).
	e := &entry{key: key, canon: q.String(), mode: mode, s: s, cost: estimateCost(key, s)}
	c.byKey[key] = c.lru.PushFront(e)
	c.bytes += e.cost
	c.evictLocked()
	c.mu.Unlock()
	return s, nil
}

// runCompile invokes the compile hook with a panic guard: the winning
// caller of a single-flight runs the compilation, and if it panicked
// without this guard the flight would stay registered with done never
// closed — every later Get for that key would join the dead flight and
// block until its own deadline, wedging the query until a restart. A
// panic (from an injected Config.Compile, or an undiscovered one in the
// compilation pipeline) becomes an ordinary uncached error instead.
func (c *Cache) runCompile(q *spanner.Query, mode spanner.Mode) (s *spanner.Spanner, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("cache: compile panicked: %v", r)
		}
	}()
	return c.compile(q, mode)
}

// evictLocked drops least-recently-used entries until both bounds hold,
// always keeping at least the most recent entry (so one oversized query
// still caches). Caller holds c.mu.
func (c *Cache) evictLocked() {
	for c.lru.Len() > 1 &&
		((c.maxEntries >= 0 && c.lru.Len() > c.maxEntries) ||
			(c.maxBytes >= 0 && c.bytes > c.maxBytes)) {
		el := c.lru.Back()
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.byKey, e.key)
		c.bytes -= e.cost
		c.evictions.Add(1)
	}
}

// estimateCost approximates an entry's resident footprint. Strict-mode
// spanners are dominated by the dense dispatch table (measured exactly);
// automaton states and transitions stand in for everything else, and lazy
// entries are costed by the source automaton they will determinize from
// (their memo tables grow with use; the estimate is taken at insert and
// deliberately not revisited — a cache that re-weighed entries under load
// would thrash).
func estimateCost(key string, s *spanner.Spanner) int64 {
	st := s.Stats()
	cost := int64(len(key)) + 1024 // struct overhead, registry, pattern
	cost += int64(st.DenseTableBytes)
	cost += int64(st.EVAStates)*64 + int64(st.EVATransitions)*32
	if st.Mode == spanner.ModeLazy {
		// Each discovered subset state will own a memo row of 4-byte
		// entries, one per byte class padded to the table's row stride.
		cost += int64(st.EVAStates) * int64(eva.RowStride(st.ByteClasses)) * 4
	}
	return cost
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Errors:    c.errors.Load(),
		Entries:   c.lru.Len(),
		Bytes:     c.bytes,
		InFlight:  len(c.flights),
	}
}

// Entries returns a snapshot of the resident entries, most recently used
// first. The spanners themselves are not exposed; DetStates is read from
// each spanner's atomic counter, so the call does not contend with
// evaluations.
func (c *Cache) Entries() []EntryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryInfo, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		st := e.s.Stats()
		out = append(out, EntryInfo{
			Query:                 e.canon,
			Mode:                  e.mode,
			Hits:                  e.hits.Load(),
			Cost:                  e.cost,
			DetStates:             st.DetStates,
			PrefilterEnabled:      st.PrefilterEnabled,
			PrefilterSkippedBytes: st.PrefilterSkippedBytes,
			PrefilterFallbacks:    st.PrefilterFallbacks,
		})
	}
	return out
}

// Purge drops every resident entry (in-flight compilations are unaffected
// and will insert their results when they finish). Counters are not reset.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	clear(c.byKey)
	c.bytes = 0
}
