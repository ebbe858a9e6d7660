// Package cluster fans one compiled spanner out over the shards of a
// corpus snapshot and merges the per-shard streams back into a single
// globally deterministic sequence — a scatter/gather layer over the
// per-process engine. spannerd does not use it (it runs corpora on the
// engine directly); the benchmark's traced ladder measures it against
// the engine.
//
// Scatter: each shard runs the existing engine.ProcessContext over its
// slice of the corpus, so the per-shard evaluation inherits everything the
// engine already guarantees — worker-pool preprocessing, bounded resident
// windows, strict shard-local input order, and the exact emitted-prefix
// accounting a partial result needs. One engine instance is shared by all
// shards (an Engine is immutable and safe for concurrent batches), each
// shard's ProcessContext getting an equal slice of the worker budget.
//
// Gather: a shard's documents keep their global order (package corpus), so
// each shard stream is an order-preserving subsequence of the corpus
// stream, and the merge needs no reordering buffer at all: for global
// document g the coordinator simply takes the *next* item of owner(g)'s
// stream. Delivery to the shard uses a blocking handoff — a shard's emit
// callback parks until the coordinator has drained the document — because
// an engine Evaluation is only valid during the emit call; the handoff is
// what lets the coordinator enumerate a document's matches without a
// single match being copied or materialized, preserving the paper's
// preprocessing/constant-delay split across the scatter. Shards read ahead
// regardless: their preprocessing workers keep a 2×workers window of
// documents evaluated behind the parked emit.
//
// The result is byte-for-byte the stream a single unsharded process would
// produce, whatever K — the property TestScatterGatherMatchesSerial pins —
// while a deadline still leaves exact accounting: per-shard emitted
// prefixes (engine semantics: documents whose delivery began), summed into
// the processed total a trailer can report.
package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"spanners/corpus"
	"spanners/engine"
	"spanners/spanner"
)

// Coordinator scatters one compiled spanner over one corpus snapshot. It
// is cheap to construct per request; the snapshot pins the corpus
// generation for the coordinator's whole lifetime.
type Coordinator struct {
	sp      *spanner.Spanner
	snap    *corpus.Snapshot
	workers int
}

// Option configures New.
type Option func(*Coordinator)

// Workers sets the total worker budget fanned across the shards (values
// below 1, and the default, mean GOMAXPROCS). Each shard's engine pool
// gets an equal share, at least 1.
func Workers(n int) Option { return func(c *Coordinator) { c.workers = n } }

// New returns a coordinator evaluating sp over snap's shards.
func New(sp *spanner.Spanner, snap *corpus.Snapshot, opts ...Option) *Coordinator {
	c := &Coordinator{sp: sp, snap: snap}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Gather is the exact cross-shard accounting of one Process run.
type Gather struct {
	// Docs is the corpus size.
	Docs int
	// Processed sums the per-shard emitted prefixes: documents whose
	// delivery began, in the engine.ProcessContext sense. On a completed
	// run Processed == Docs; cut short, the documents actually emitted to
	// the consumer are a strict prefix of the global order, and at most
	// one further document per shard counts as processed with its
	// delivery abandoned mid-handoff.
	Processed int
	// PerShard is indexed by shard.
	PerShard []ShardGather
}

// ShardGather is one shard's slice of a Gather.
type ShardGather struct {
	Docs    int // documents the shard owns
	Emitted int // its emitted prefix: shard documents whose delivery began
}

// perShardWorkers resolves the per-shard engine pool size.
func (c *Coordinator) perShardWorkers() int {
	w := c.workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, w/c.snap.Shards())
}

// handoff is one document crossing from a shard goroutine to the
// coordinator. The Evaluation stays owned by the shard's engine; the shard
// parks until the coordinator answers on reply, which bounds the
// evaluation's lifetime exactly like a direct emit call.
type handoff struct {
	global int
	ev     *spanner.Evaluation
	err    error
}

// ProcessContext evaluates the whole corpus, calling emit with
// (global document ordinal, evaluation, load error) strictly in global
// registration order — the same contract as engine.ProcessContext, spread
// across the shards. Exactly like the engine: the Evaluation is valid only
// during the emit call, emit returning false stops the run (nil error),
// and a context cancellation stops every shard promptly and is returned.
// The returned Gather is exact on every path. The shard workers' no-leak
// discipline (WaitGroup.Done on all paths, Waited by this launcher) is
// machine-checked by the goroleak analyzer in cmd/spanlint.
func (c *Coordinator) ProcessContext(ctx context.Context, emit func(doc int, ev *spanner.Evaluation, err error) bool) (Gather, error) {
	snap := c.snap
	n, k := snap.Len(), snap.Shards()
	g := Gather{Docs: n, PerShard: make([]ShardGather, k)}
	//spanlint:ignore ctxloop bounded accounting over the in-memory shard map, microsecond-scale
	for s := 0; s < k; s++ {
		g.PerShard[s].Docs = len(snap.ShardDocs(s))
	}
	if n == 0 {
		return g, ctx.Err()
	}

	// The coordinator owns a derived context so quitting (emit false, or
	// its own deadline observation) releases every parked shard.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	eng := engine.New(c.sp, engine.Workers(c.perShardWorkers()))
	streams := make([]chan handoff, k)
	replies := make([]chan bool, k)
	for s := range streams {
		streams[s] = make(chan handoff)
		replies[s] = make(chan bool)
	}

	var wg sync.WaitGroup
	emitted := make([]int, k)
	for s := 0; s < k; s++ {
		ids := snap.ShardDocs(s)
		if len(ids) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, ids []int) {
			defer wg.Done()
			emitted[s], _ = eng.ProcessContext(ctx, len(ids),
				func(i engine.DocID) ([]byte, error) { return snap.Doc(ids[i]), nil },
				func(i engine.DocID, ev *spanner.Evaluation, err error) bool {
					select {
					case streams[s] <- handoff{global: ids[i], ev: ev, err: err}:
					case <-ctx.Done():
						return false
					}
					select {
					case cont := <-replies[s]:
						return cont
					case <-ctx.Done():
						// The coordinator quit between handoff and reply;
						// the document was (possibly partially) drained and
						// stays inside this shard's emitted prefix.
						return false
					}
				})
		}(s, ids)
	}

	var err error
merge:
	for doc := 0; doc < n; doc++ {
		s := snap.Owner(doc)
		var h handoff
		select {
		case h = <-streams[s]:
		case <-ctx.Done():
			err = ctx.Err()
			break merge
		}
		if h.global != doc {
			// Unreachable by construction (shard streams are ascending
			// subsequences of the global order); a failure here means the
			// partition and the merge disagree — corrupt output, so stop.
			err = fmt.Errorf("cluster: shard %d delivered doc %d, coordinator expected %d", s, h.global, doc)
			break merge
		}
		// Mirror engine.ProcessContext: prefer a cancellation that raced
		// the delivery, and never emit after observing it. The parked
		// shard unblocks via ctx and releases the evaluation itself.
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break merge
		}
		cont := emit(h.global, h.ev, h.err)
		select {
		case replies[s] <- cont:
		case <-ctx.Done():
		}
		if !cont {
			break merge
		}
	}
	cancel()
	wg.Wait()
	for s := 0; s < k; s++ {
		g.PerShard[s].Emitted = emitted[s]
		g.Processed += emitted[s]
	}
	return g, err
}

// CountContext runs fn over every document of the corpus, fanning the
// shards out concurrently (each shard a worker pool over its documents).
// fn calls run concurrently and receive distinct documents, so writing to
// per-document slots of a shared result slice is safe. All-or-nothing: the
// first error cancels the remaining work and is returned; nil means fn
// succeeded on every document.
func (c *Coordinator) CountContext(ctx context.Context, fn func(ctx context.Context, doc int, data []byte) error) error {
	snap := c.snap
	k := snap.Shards()
	if snap.Len() == 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	w := c.perShardWorkers()
	errs := make([]error, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		ids := snap.ShardDocs(s)
		if len(ids) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, ids []int) {
			defer wg.Done()
			engine.Map(w, len(ids),
				func(i int) error { return fn(ctx, ids[i], snap.Doc(ids[i])) },
				func(_ int, err error) bool {
					if err != nil {
						errs[s] = err
						cancel() // fail fast across all shards
						return false
					}
					return true
				})
		}(s, ids)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
