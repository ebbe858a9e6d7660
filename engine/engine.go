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
package engine

import (
	"context"
	"iter"
	"runtime"
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

// poolSize resolves the effective worker count for a batch of n documents.
func (e *Engine) poolSize(n int) int {
	w := e.workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
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
// batch stops promptly at every stage: queued documents are skipped by the
// workers, in-flight preprocessing passes abort between chunks
// (spanner.PreprocessContext), and the consumer stops emitting — emit is
// never called after the cancellation is observed. ProcessContext returns
// ctx.Err() when the batch was cut short by the context, nil when every
// document was emitted or emit stopped the batch itself. No goroutines are
// leaked either way. (That promise is machine-checked: the goroleak
// analyzer in cmd/spanlint requires every goroutine launched in a library
// package — the workers below included — to carry a termination
// guarantee on all paths.)
//
// emitted is the exact number of emit calls that ran: because the consumer
// delivers strictly in input order, the documents emitted are precisely
// DocIDs [0, emitted) and the documents skipped by a cancellation are
// precisely [emitted, n) — so a caller reporting a partial result (e.g. a
// server's partial-response trailer) can state "processed emitted of n"
// without instrumenting its emit callback. emitted == n exactly when err
// is nil and emit never stopped the batch.
func (e *Engine) ProcessContext(ctx context.Context, n int, load func(DocID) ([]byte, error), emit func(DocID, *spanner.Evaluation, error) bool) (emitted int, err error) {
	if n == 0 {
		return 0, nil
	}
	workers := e.poolSize(n)

	// Every document index is queued up front; results[i] is buffered so
	// a worker can always deliver and move on, even when the consumer has
	// stopped — that is what makes early termination leak-free without
	// draining. A loaded-and-preprocessed document pins its bytes and an
	// evaluation arena until the consumer drains it, so inflight tickets
	// bound the resident set; stopCh wakes workers blocked on a ticket
	// when the consumer quits early.
	//
	// Deadlock freedom: a worker acquires its inflight ticket BEFORE
	// dequeuing an index, so every dequeued index progresses to delivery
	// without further blocking. jobs is FIFO, hence the lowest undrained
	// index is always either already deliverable or still in jobs with a
	// ticket obtainable for it (tickets held by delivered documents are
	// freed by the in-order consumer as it drains them). Ticketing after
	// the dequeue would be unsound: a worker could dequeue the lowest
	// index, stall on a full ticket window while the consumer waits on
	// that very index, and wedge the batch.
	type result struct {
		ev  *spanner.Evaluation
		err error
	}
	jobs := make(chan int, n)
	//spanlint:ignore ctxloop jobs is buffered to exactly n, so every send completes without blocking
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	results := make([]chan result, n)
	for i := range results {
		results[i] = make(chan result, 1)
	}
	inflight := make(chan struct{}, 2*workers)
	stopCh := make(chan struct{})
	var stop atomic.Bool

	for w := 0; w < workers; w++ {
		go func() {
			for {
				ticket := false
				select {
				case inflight <- struct{}{}:
					ticket = true
				case <-stopCh:
				case <-ctx.Done():
				}
				i, ok := <-jobs
				if !ok {
					if ticket {
						<-inflight
					}
					return
				}
				if !ticket || stop.Load() || ctx.Err() != nil {
					if ticket {
						<-inflight
					}
					results[i] <- result{}
					continue
				}
				doc, err := load(DocID(i))
				if err != nil {
					<-inflight
					results[i] <- result{err: err}
					continue
				}
				// The context aborts in-flight preprocessing between chunks;
				// a cancelled pass reports a nil Evaluation, like the stop
				// path.
				ev, err := e.s.PreprocessContext(ctx, doc)
				if err != nil || stop.Load() {
					// Cancelled, or the consumer quit during the pass;
					// nobody will drain this result, so return the pooled
					// scratch here instead of dropping it to the GC.
					if ev != nil {
						ev.Release()
					}
					<-inflight
					results[i] <- result{}
					continue
				}
				results[i] <- result{ev: ev}
			}
		}()
	}

	defer func() {
		if stop.CompareAndSwap(false, true) {
			close(stopCh)
		}
	}()
	for i := 0; i < n; i++ {
		// Empty results (both fields nil) exist only on the stop and
		// cancellation paths; the cancellation check below keeps the
		// consumer from ever emitting one.
		var res result
		select {
		case res = <-results[i]:
		case <-ctx.Done():
			// A worker may have delivered results[i] in the same instant
			// the cancellation won the select; drain it non-blockingly so
			// its pooled scratch and inflight ticket are not dropped.
			select {
			case res = <-results[i]:
				if res.ev != nil {
					res.ev.Release()
					<-inflight
				}
			default:
			}
			return i, ctx.Err()
		}
		if err := ctx.Err(); err != nil {
			// The select may race a delivered result against the
			// cancellation; prefer the cancellation and never emit after
			// it, releasing the undrained evaluation ourselves.
			if res.ev != nil {
				res.ev.Release()
				<-inflight
			}
			return i, err
		}
		ok := emit(DocID(i), res.ev, res.err)
		if res.ev != nil {
			res.ev.Release()
			<-inflight
		}
		if !ok {
			return i + 1, nil
		}
	}
	// Every document was emitted: the batch completed, whatever the
	// context did in the meantime.
	return n, nil
}

// Map runs fn over the indexes [0, n) on a pool of workers and hands each
// result to emit strictly in index order on the calling goroutine. fn calls
// run concurrently and must be safe to do so; errors are folded into T.
// emit returning false stops the batch: emit is never called again, no
// goroutines are leaked, and workers skip fn for indexes they dequeue
// after observing the stop — a best-effort cutoff, so in-flight and
// just-dequeued fn calls may still run to completion with their results
// dropped. Values below 1 for workers mean 1.
//
// Map is the ordered fan-in primitive for per-index work whose results are
// small (counts, summaries): every result is buffered until the consumer
// reaches its index. Engine.Process serves the document-sized case, adding
// ticketing that bounds the resident payloads to a 2×workers window.
func Map[T any](workers, n int, fn func(int) T, emit func(int, T) bool) {
	if n == 0 {
		return
	}
	workers = max(1, min(workers, n))
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	results := make([]chan T, n)
	for i := range results {
		results[i] = make(chan T, 1)
	}
	var stop atomic.Bool
	for w := 0; w < workers; w++ {
		go func() {
			var zero T
			for i := range jobs {
				if stop.Load() {
					results[i] <- zero
					continue
				}
				results[i] <- fn(i)
			}
		}()
	}
	defer stop.Store(true)
	for i := 0; i < n; i++ {
		if !emit(i, <-results[i]) {
			return
		}
	}
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
	Map(e.poolSize(len(docs)), len(docs),
		func(i int) struct{} {
			counts[i], exact[i] = e.s.Count(docs[i])
			return struct{}{}
		},
		func(int, struct{}) bool { return true })
	return counts, exact
}
