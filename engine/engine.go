// Package engine evaluates one compiled spanner over batches of documents
// concurrently. It fans the documents of a batch out across a pool of
// worker goroutines — each preprocessing into pooled evaluation scratch —
// and merges the per-document match streams back into a single
// deterministic sequence: matches are delivered grouped by document,
// documents in input order, and matches within a document in the spanner's
// canonical enumeration order (Algorithm 2's DFS order). The output of Run
// is therefore byte-for-byte identical to a serial loop over the batch,
// whatever the worker count.
//
//	s := spanner.MustCompile(pattern)
//	eng := engine.New(s, engine.Workers(8))
//	for id, m := range eng.Run(docs) {
//	    fmt.Println(id, m)
//	}
//
// The division of labor follows the paper's two phases: workers run the
// document-sized preprocessing pass (Algorithm 1), the consumer replays
// the constant-delay enumerations (Algorithm 2) in document order, so no
// match is ever copied between goroutines. Consequently Run's *Match
// follows the facade's ownership rule: it is a scratch buffer reused
// across yields — Clone it to retain it. Use spanner.Spanner.Collect when
// a batch of retained matches is wanted instead.
//
// One ordered pool runs every batch: Run, Process and ProcessContext over
// documents, Count, Map and MapContext over arbitrary per-index work. It
// holds at most 2×workers results at a time, honours cancellation at
// every stage, and leaks no goroutines. A batch of exactly one item has
// nothing to overlap, so it runs on the calling goroutine and starts no
// worker; callers therefore need no single-document path of their own.
package engine

import (
	"context"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"spanners/spanner"
)

// DocID identifies a document of a batch by its index in the input slice.
type DocID int

// Match is one output mapping of a document; see spanner.Match.
type Match = spanner.Match

// Engine is a reusable batch evaluator for one compiled spanner. It is
// immutable after New and safe for concurrent use; independent batches may
// Run at the same time. That is what lets the cluster scatter layer share
// one Engine across all shards of a corpus — one ProcessContext per shard,
// concurrently — instead of building per-shard evaluator state.
type Engine struct {
	s       *spanner.Spanner
	workers int
	limit   int
}

// Option configures New.
type Option func(*Engine)

// Workers requests a worker-pool size. Values below 1 (and the default)
// select the hardware parallelism, the right size for pure CPU work over
// in-memory documents. An explicit n is honored as given — above
// GOMAXPROCS it buys nothing for Run's in-memory batches but is exactly
// what Process wants when its loader blocks on I/O (files, object
// stores), where the pool size is the I/O concurrency. The pool is never
// larger than the batch.
func Workers(n int) Option { return func(e *Engine) { e.workers = n } }

// Limit caps the number of matches emitted per document (0, the default,
// means no cap). Enumeration of a document stops once its cap is reached;
// the preprocessing pass is whole-document either way.
func Limit(n int) Option { return func(e *Engine) { e.limit = n } }

// New returns a batch evaluator over the compiled spanner s. The pool size
// is resolved against GOMAXPROCS at each Run/Count call, so an Engine
// created before a GOMAXPROCS change stays well-sized.
func New(s *spanner.Spanner, opts ...Option) *Engine {
	e := &Engine{s: s}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Run evaluates every document of the batch and returns a range-over-func
// iterator over (document index, match) pairs in deterministic serial
// order. Stopping the iteration early (break) stops the workers after
// their in-flight documents; no goroutines are leaked.
//
// The heavy O(|A|·|doc|) preprocessing pass runs on the workers; the cheap
// constant-delay enumeration runs on the consumer, in document order, so
// no match is ever copied. Like Spanner.Enumerate, the yielded *Match is a
// scratch buffer reused across calls — Clone it to retain it.
//
// The documents are read concurrently and must not be mutated while Run's
// iterator is live.
func (e *Engine) Run(docs [][]byte) iter.Seq2[DocID, *Match] {
	return func(yield func(DocID, *Match) bool) {
		e.Process(len(docs),
			func(i DocID) ([]byte, error) { return docs[i], nil },
			func(i DocID, ev *spanner.Evaluation, _ error) bool {
				emitted, ok := 0, true
				ev.Enumerate(func(m *Match) bool {
					if !yield(i, m) {
						ok = false
						return false
					}
					emitted++
					return e.limit == 0 || emitted < e.limit
				})
				return ok
			})
	}
}

// Process is the loader-based form of Run: documents are supplied lazily
// by load — which runs on the worker pool, so slow or failing sources
// (files, object stores) overlap with evaluation — preprocessed
// concurrently, and handed to emit strictly in input order on the calling
// goroutine. Exactly one of ev and err is non-nil per document: err is
// load's error for that document, surfaced at the document's position so
// the consumer sees everything before it first, exactly like a serial
// loop. emit returns false to stop the batch.
//
// The Evaluation is valid only during the emit call (Process releases its
// pooled scratch afterwards); Clone any match to retain. At most
// 2×workers documents are resident at a time — loaded bytes and
// preprocessing arenas both — whatever the batch size.
func (e *Engine) Process(n int, load func(DocID) ([]byte, error), emit func(DocID, *spanner.Evaluation, error) bool) {
	_, _ = e.ProcessContext(context.Background(), n, load, emit)
}

// ProcessContext is Process with cancellation. When ctx is cancelled the
// batch stops promptly at every stage: queued documents are never loaded,
// in-flight preprocessing passes abort between chunks
// (spanner.PreprocessContext), and the consumer stops emitting — emit is
// never called after the cancellation is observed. ProcessContext returns
// ctx.Err() when the batch was cut short by the context, nil when every
// document was emitted or emit stopped the batch itself. No goroutines are
// leaked either way.
//
// emitted is the exact number of emit calls that ran: because the consumer
// delivers strictly in input order, the documents emitted are precisely
// DocIDs [0, emitted) and the documents skipped by a cancellation are
// precisely [emitted, n) — so a caller reporting a partial result (e.g. a
// server's partial-response trailer) can state "processed emitted of n"
// without instrumenting its emit callback. emitted == n exactly when err
// is nil and emit never stopped the batch.
func (e *Engine) ProcessContext(ctx context.Context, n int, load func(DocID) ([]byte, error), emit func(DocID, *spanner.Evaluation, error) bool) (emitted int, err error) {
	type result struct {
		ev  *spanner.Evaluation
		err error
	}
	return ordered(ctx, e.workers, n,
		func(i int) result {
			doc, err := load(DocID(i))
			if err != nil {
				return result{err: err}
			}
			// A pass the context aborts between chunks reports the
			// context's error, which the pool never emits.
			ev, err := e.s.PreprocessContext(ctx, doc)
			return result{ev: ev, err: err}
		},
		func(i int, r result) bool { return emit(DocID(i), r.ev, r.err) },
		func(r result) {
			if r.ev != nil {
				r.ev.Release()
			}
		})
}

// Map is MapContext without cancellation.
func Map[T any](workers, n int, fn func(int) T, emit func(int, T) bool) {
	_ = MapContext(context.Background(), workers, n, fn, emit)
}

// MapContext runs fn over the indexes [0, n) on a pool of workers and
// hands each result to emit strictly in index order on the calling
// goroutine. fn calls run concurrently and must be safe to do so; errors
// are folded into T. Workers reads like the Workers option: values below
// 1 select GOMAXPROCS, and the pool is never larger than the batch. At
// most 2×workers results are held at a time.
//
// emit returning false stops the batch, and a cancelled ctx stops it with
// ctx.Err(): emit is never called again, fn never starts for an index
// still queued, and no goroutines are leaked. fn calls already running
// complete, their results dropped; fn observes ctx itself if it should
// stop sooner.
//
// MapContext is the ordered fan-in for per-index work whose results are
// small (counts, summaries); Engine.ProcessContext is the same pool over
// documents, releasing each document's evaluation after its emit.
func MapContext[T any](ctx context.Context, workers, n int, fn func(int) T, emit func(int, T) bool) error {
	_, err := ordered(ctx, workers, n, fn, emit, func(T) {})
	return err
}

// ordered is the one batch pool behind ProcessContext and MapContext. It
// runs work over the indexes [0, n), hands the results to emit strictly in
// index order on the calling goroutine, and hands every result work
// produced to done exactly once: after its emit, or in place of it when
// the batch stops (emit false) or ctx is cancelled. emitted and err follow
// ProcessContext's contract. workers below 1 mean GOMAXPROCS; the pool is
// capped at n.
//
// A batch of one item has nothing to overlap, so it runs inline on the
// caller and starts no goroutine.
func ordered[T any](ctx context.Context, workers, n int, work func(int) T, emit func(int, T) bool, done func(T)) (emitted int, err error) {
	switch n {
	case 0:
		return 0, nil
	case 1:
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		v := work(0)
		defer done(v)
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		emit(0, v)
		return 1, nil
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	// results[i] is buffered so a worker can always deliver and move on.
	// A delivered result may pin a document and an evaluation arena until
	// the consumer drains it, so inflight tickets bound the resident set
	// to 2×workers results; stopCh wakes workers blocked on a ticket when
	// the consumer quits.
	//
	// Deadlock freedom: a worker acquires its inflight ticket BEFORE
	// dequeuing an index, so every dequeued index progresses to delivery
	// without further blocking. Dequeuing is FIFO (next counts up), hence
	// the lowest undrained index is always either already deliverable or
	// still queued with a ticket obtainable for it (tickets held by
	// delivered results are freed by the in-order consumer as it drains
	// them). Ticketing after the dequeue would be unsound: a worker could
	// dequeue the lowest index, stall on a full ticket window while the
	// consumer waits on that very index, and wedge the batch.
	//
	// Exactly-once done: stopCh is closed under mu, and a worker delivers
	// under mu only while stopCh is open. A result is therefore either
	// delivered before the close — and the consumer emits it or drains it
	// on the way out — or finished after it, and its worker calls done.
	var next atomic.Int64
	results := make([]chan T, n)
	for i := range results {
		results[i] = make(chan T, 1)
	}
	inflight := make(chan struct{}, 2*workers)
	stopCh := make(chan struct{})
	var mu sync.Mutex
	stopped := func() bool {
		select {
		case <-stopCh:
			return true
		default:
			return false
		}
	}

	for w := 0; w < workers; w++ {
		go func() {
			for {
				select {
				case inflight <- struct{}{}:
				case <-stopCh:
					return
				case <-ctx.Done():
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n || stopped() || ctx.Err() != nil {
					<-inflight
					return
				}
				v := work(i)
				mu.Lock()
				quit := stopped()
				if !quit {
					results[i] <- v
				}
				mu.Unlock()
				if quit {
					done(v)
					<-inflight
					return
				}
			}
		}()
	}

	defer func() {
		mu.Lock()
		close(stopCh)
		mu.Unlock()
		for _, ch := range results {
			select {
			case v := <-ch:
				done(v)
			default:
			}
		}
	}()
	for i := 0; i < n; i++ {
		var v T
		select {
		case v = <-results[i]:
		case <-ctx.Done():
			return i, ctx.Err()
		}
		if err := ctx.Err(); err != nil {
			// The select may race a delivered result against the
			// cancellation; prefer the cancellation and never emit after
			// it.
			done(v)
			return i, err
		}
		ok := emit(i, v)
		done(v)
		<-inflight
		if !ok {
			return i + 1, nil
		}
	}
	// Every result was emitted: the batch completed, whatever the context
	// did in the meantime.
	return n, nil
}

// Count evaluates the Theorem 5.1 counting pass over every document of the
// batch concurrently and returns the per-document counts in input order.
// exact[i] is false only when the true count does not fit in uint64;
// count[i] is then its low 64 bits.
func (e *Engine) Count(docs [][]byte) (counts []uint64, exact []bool) {
	counts = make([]uint64, len(docs))
	exact = make([]bool, len(docs))
	// Each worker writes only its own index; Map returns after every
	// result has been handed over, so the slices are complete.
	Map(e.workers, len(docs),
		func(i int) struct{} {
			counts[i], exact[i] = e.s.Count(docs[i])
			return struct{}{}
		},
		func(int, struct{}) bool { return true })
	return counts, exact
}
