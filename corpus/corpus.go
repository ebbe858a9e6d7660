// Package corpus turns spannerd from a stateless evaluator of
// request-supplied documents into a service over *registered* document
// sets. A corpus is a named, ordered sequence of documents that is
// registered once and queried many times; spannerd evaluates it on the
// engine pool exactly as it evaluates request-body documents.
//
// Two invariants carry the whole design:
//
//   - A Snapshot is immutable. Registering a corpus builds a new Snapshot;
//     replacing or deleting it installs a new one (or none) in the
//     Registry but never mutates the old, so an in-flight evaluation keeps
//     a consistent view for as long as it holds the pointer. A response is
//     therefore always computed against exactly one generation.
//
//   - Generations are monotone per name. Every Register of a name — first,
//     replace, or re-register after Delete — observes a strictly larger
//     generation than any earlier snapshot of that name, so "which version
//     answered this request" is a single comparable number. Delete itself
//     consumes a generation (the tombstone), closing the ABA window where
//     a delete+re-register could masquerade as the deleted corpus.
//
// Registration also hash-partitions the documents into K shards. The
// partition serves only package cluster, a scatter/gather evaluator that
// the benchmark's traced ladder (perfbench) imports and spannerd does not;
// spannerd registers every corpus with K = 1. Sharding is by stable
// document ordinal (the document's position in the registered order),
// mixed through a 64-bit finalizer: balanced whatever the document
// contents and deterministic for a given (corpus size, K). Within a
// shard, documents keep their global order, so a shard's evaluation
// stream is an order-preserving subsequence of the corpus stream —
// exactly what the cluster merge relies on.
package corpus

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Limits bounds what a Registry accepts; the zero value of a field means
// its default. They exist so a hostile or buggy client cannot grow the
// daemon without bound through the registration endpoint.
type Limits struct {
	MaxCorpora int   // distinct names (default 64)
	MaxDocs    int   // documents per corpus (default 1<<20)
	MaxBytes   int64 // sum of raw document bytes per corpus (default 1<<30)
}

// Defaults for Limits fields left zero.
const (
	DefaultMaxCorpora = 64
	DefaultMaxDocs    = 1 << 20
	DefaultMaxBytes   = 1 << 30
)

func (l Limits) withDefaults() Limits {
	if l.MaxCorpora <= 0 {
		l.MaxCorpora = DefaultMaxCorpora
	}
	if l.MaxDocs <= 0 {
		l.MaxDocs = DefaultMaxDocs
	}
	if l.MaxBytes <= 0 {
		l.MaxBytes = DefaultMaxBytes
	}
	return l
}

// Snapshot is one immutable generation of a registered corpus: the
// documents in registration order plus their partition into shards. All
// methods are safe for concurrent use; the document bytes returned by Doc
// are shared, not copied, and must not be mutated.
//
// The only mutable state is the served-matches counter — a plain gauge
// for monitoring, reset naturally when a replacement snapshot is
// installed.
type Snapshot struct {
	name       string
	generation uint64
	docs       [][]byte
	bytes      int64
	owner      []int        // document ordinal -> shard
	shards     [][]int      // shard -> ascending document ordinals
	served     atomic.Int64 // matches served, this generation; spanlint:atomic
}

// NewSnapshot partitions docs into shards and returns a free-standing
// snapshot (generation as given). The Registry calls this under its
// bookkeeping; tests and embedders may call it directly. shards is clamped
// to at least 1; the documents are referenced, not copied.
func NewSnapshot(name string, generation uint64, docs [][]byte, shards int) *Snapshot {
	if shards < 1 {
		shards = 1
	}
	s := &Snapshot{
		name:       name,
		generation: generation,
		docs:       docs,
		owner:      make([]int, len(docs)),
		shards:     make([][]int, shards),
	}
	for i, d := range docs {
		k := int(mix64(uint64(i)) % uint64(shards))
		s.owner[i] = k
		s.shards[k] = append(s.shards[k], i)
		s.bytes += int64(len(d))
	}
	return s
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// spreads consecutive ordinals uniformly across shards.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Name returns the corpus name this snapshot was registered under.
func (s *Snapshot) Name() string { return s.name }

// Generation returns this snapshot's generation: 1 for the first Register
// of a name, strictly larger for every later Register or Delete.
func (s *Snapshot) Generation() uint64 { return s.generation }

// Len returns the number of documents.
func (s *Snapshot) Len() int { return len(s.docs) }

// Bytes returns the sum of raw document lengths.
func (s *Snapshot) Bytes() int64 { return s.bytes }

// Shards returns the shard count K.
func (s *Snapshot) Shards() int { return len(s.shards) }

// Doc returns document i (0-based registration order). The bytes are
// shared with the snapshot: callers must not mutate them.
func (s *Snapshot) Doc(i int) []byte { return s.docs[i] }

// Owner returns the shard that owns document i.
func (s *Snapshot) Owner(i int) int { return s.owner[i] }

// ShardDocs returns shard k's document ordinals in ascending (global)
// order. The slice is shared: callers must not mutate it.
func (s *Snapshot) ShardDocs(k int) []int { return s.shards[k] }

// AddServed adds n to the served-matches counter.
func (s *Snapshot) AddServed(n int64) { s.served.Add(n) }

// Served reads the served-matches counter.
func (s *Snapshot) Served() int64 { return s.served.Load() }

// Registry is the named-corpus directory: Register installs snapshots,
// Get hands them out, Delete removes them. It is safe for concurrent use;
// every operation is a pointer swap under a short lock, so readers never
// block on a registration building its partition.
type Registry struct {
	limits Limits

	// mu's pairing, read/write mode discipline, and cross-function
	// acquisition order are machine-checked by the lockorder analyzer
	// in cmd/spanlint.
	mu      sync.RWMutex
	corpora map[string]*Snapshot
	// gens outlives deletion so re-registering a deleted name keeps the
	// generation monotone instead of restarting at 1.
	gens map[string]uint64
}

// NewRegistry returns an empty registry enforcing the given limits.
func NewRegistry(limits Limits) *Registry {
	return &Registry{
		limits:  limits.withDefaults(),
		corpora: make(map[string]*Snapshot),
		gens:    make(map[string]uint64),
	}
}

// ValidName reports whether name is acceptable as a corpus name:
// 1–128 bytes of [A-Za-z0-9._-]. The character set is deliberately
// URL-path- and filename-safe.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Register installs (or replaces) the corpus under name, partitioned into
// shards, and returns its snapshot. The documents are referenced, not
// copied, and must not be mutated afterwards. A non-nil error is a client
// error: invalid name, a shard count below 1, or a corpus over the
// registry's size limits.
func (r *Registry) Register(name string, docs [][]byte, shards int) (*Snapshot, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("invalid corpus name %q (want 1-128 bytes of [A-Za-z0-9._-])", name)
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard count %d is below 1", shards)
	}
	if len(docs) > r.limits.MaxDocs {
		return nil, fmt.Errorf("corpus has %d documents; this registry accepts at most %d", len(docs), r.limits.MaxDocs)
	}
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d))
	}
	if bytes > r.limits.MaxBytes {
		return nil, fmt.Errorf("corpus is %d bytes; this registry accepts at most %d", bytes, r.limits.MaxBytes)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.corpora[name]; !exists && len(r.corpora) >= r.limits.MaxCorpora {
		return nil, fmt.Errorf("registry holds %d corpora; at most %d allowed", len(r.corpora), r.limits.MaxCorpora)
	}
	gen := r.gens[name] + 1
	r.gens[name] = gen
	snap := NewSnapshot(name, gen, docs, shards)
	r.corpora[name] = snap
	return snap, nil
}

// Get returns the current snapshot registered under name. The snapshot
// stays valid (and immutable) however the registry changes afterwards.
func (r *Registry) Get(name string) (*Snapshot, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.corpora[name]
	return s, ok
}

// Delete removes name from the registry, consuming a generation as a
// tombstone. It reports whether a corpus was removed and the tombstone
// generation (0 when name was never registered).
func (r *Registry) Delete(name string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.corpora[name]; !ok {
		return 0, false
	}
	delete(r.corpora, name)
	gen := r.gens[name] + 1
	r.gens[name] = gen
	return gen, true
}

// List returns the current snapshots, sorted by name.
func (r *Registry) List() []*Snapshot {
	r.mu.RLock()
	out := make([]*Snapshot, 0, len(r.corpora))
	for _, s := range r.corpora {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Len returns the number of registered corpora.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.corpora)
}
