// Reader-based evaluation: the Algorithm 1 preprocessing phase is a single
// left-to-right scan, so a Spanner can consume a document incrementally
// from an io.Reader — chunks are evaluated as they arrive, and enumeration
// starts the moment the input ends. The document bytes are retained (the
// output spans refer to them), so what streaming buys is latency and the
// elimination of a separate read-everything-first pass, not peak memory:
// the DAG is proportional to the document either way.
package spanner

import (
	"context"
	"io"
	"iter"
	"math/big"
	"sync"

	"spanners/internal/core"
)

// readChunk is the Read granularity of the Reader-based entry points.
const readChunk = 64 << 10

// evalScratch bundles the pooled per-document state: the core evaluation
// scratch (Algorithm 1 tables, round-program memo and DAG arena), the
// counting pass's tables and memo, and the Read buffer of the Reader-based
// entry points.
type evalScratch struct {
	eval  core.Scratch
	count core.CountStream
	rbuf  []byte
}

// scratchPool pools per-document evaluation state (Algorithm 1 tables plus
// the DAG arena, and the counting tables) across the bounded-lifetime
// entry points (Enumerate, All, EnumerateReader, Preprocess and through it
// the engine package, and the counting passes), so
// compile-once/evaluate-many workloads stop paying the per-document
// allocation. It is one pool for every Spanner, not one per Spanner:
// core.NewStream and CountStream.Reset re-initialize the tables, arena and
// acceleration gate for whatever automaton they are given, and reset the
// round-program memo, capacity kept, when the automaton differs from the
// one it was built for. So a scratch carries no state of one automaton
// into another's pass, and a one-shot spanner (an unseen query) reuses
// the arena and memo capacity of the last one instead of allocating and
// stranding its own.
var scratchPool sync.Pool

func getScratch() *evalScratch {
	if v := scratchPool.Get(); v != nil {
		return v.(*evalScratch)
	}
	return &evalScratch{}
}

func putScratch(sc *evalScratch) { scratchPool.Put(sc) }

// pump reads r in chunks through the scratch's read buffer and hands each
// chunk to feed. The chunk is only valid during the feed call. ctx is
// checked before every Read; cancellation surfaces as ctx.Err().
func pump(ctx context.Context, r io.Reader, sc *evalScratch, feed func(chunk []byte)) error {
	if sc.rbuf == nil {
		sc.rbuf = make([]byte, readChunk)
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := r.Read(sc.rbuf)
		if n > 0 {
			feed(sc.rbuf[:n])
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// streamResultContext pumps r through an incremental preprocessing pass,
// checking ctx before every Read, and returns the closed Result. Each chunk
// is appended to a document buffer freshly allocated per call — never
// pooled — which the Result borrows, so Matches cloned by the caller keep
// valid span text after the scratch is reused.
func (s *Spanner) streamResultContext(ctx context.Context, r io.Reader, sc *evalScratch) (*core.Result, error) {
	st := core.NewStream(s.automaton(), &sc.eval)
	var doc []byte
	feed := func(chunk []byte) {
		doc = append(doc, chunk...)
		st.Feed(chunk)
	}
	if err := pump(ctx, r, sc, feed); err != nil {
		return nil, err
	}
	res := st.Close(doc)
	s.noteAccel(st.AccelSkippedBytes(), st.AccelFellBack())
	return res, nil
}

// EnumerateReader reads the document from r, evaluating it incrementally
// as chunks arrive, and streams every match to yield once the input ends;
// it stops early when yield returns false. The output is identical to
// Enumerate over the concatenated input. The *Match passed to yield is
// reused across calls; Clone it to retain it (clones stay valid after the
// call returns). The only error returned is a read error from r.
func (s *Spanner) EnumerateReader(r io.Reader, yield func(*Match) bool) error {
	return s.EnumerateReaderContext(context.Background(), r, yield)
}

// AllReader returns a range-over-func iterator over the matches of the
// document read from r:
//
//	for m, err := range s.AllReader(r) { ... }
//
// Matches are yielded with a nil error; a read error from r terminates the
// sequence with a final (nil, err) pair. The *Match is reused across
// iterations; Clone it to retain it.
func (s *Spanner) AllReader(r io.Reader) iter.Seq2[*Match, error] {
	return func(yield func(*Match, error) bool) {
		stopped := false
		err := s.EnumerateReader(r, func(m *Match) bool {
			if !yield(m, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}

// countStreamContext pumps r through an incremental counting pass
// (Theorem 5.1), checking ctx before every Read; unlike EnumerateReader it
// retains no document bytes at all. It borrows a pooled scratch for the
// read buffer and the counting tables.
func (s *Spanner) countStreamContext(ctx context.Context, r io.Reader, total func(*core.CountStream)) error {
	sc := getScratch()
	defer putScratch(sc)
	cs := &sc.count
	cs.Reset(s.automaton())
	if err := pump(ctx, r, sc, cs.Feed); err != nil {
		return err
	}
	total(cs)
	s.noteAccel(cs.AccelSkippedBytes(), cs.AccelFellBack())
	return nil
}

// CountReader is Count over the document read from r, in one pass and
// O(states) memory — the document is never materialized.
func (s *Spanner) CountReader(r io.Reader) (count uint64, exact bool, err error) {
	return s.CountReaderContext(context.Background(), r)
}

// Evaluation is a preprocessed document whose enumeration is deferred: the
// O(|A|·|doc|) Algorithm 1 pass has run, and Enumerate replays the matches
// with constant delay at any later point. It decouples where the two
// phases run — the engine package preprocesses on worker goroutines and
// enumerates on the consumer — while keeping the facade's pooled-scratch
// economics: Release returns the evaluation state to the shared pool.
//
// An Evaluation is not goroutine-safe. After Release it must not be used.
type Evaluation struct {
	s   *Spanner
	sc  *evalScratch
	res *core.Result
}

// Preprocess runs the preprocessing pass over doc using pooled scratch and
// returns the deferred evaluation. Call Enumerate (any number of times)
// and then Release; a dropped Evaluation is safe but forgoes scratch
// reuse.
func (s *Spanner) Preprocess(doc []byte) *Evaluation {
	ev, _ := s.PreprocessContext(context.Background(), doc) // cannot fail
	return ev
}

// IsEmpty reports whether the document has no matches.
func (e *Evaluation) IsEmpty() bool { return e.res.IsEmpty() }

// Enumerate streams every match to yield, stopping early when yield
// returns false. The *Match passed to yield is reused across calls; Clone
// it to retain it.
func (e *Evaluation) Enumerate(yield func(*Match) bool) {
	e.s.drain(e.res, yield)
}

// Release returns the evaluation state to the shared scratch pool. The
// Evaluation — and any un-Cloned *Match it yielded — is invalid afterwards.
func (e *Evaluation) Release() {
	if e.sc == nil {
		return // already released
	}
	putScratch(e.sc)
	e.sc = nil
	e.res = nil
}

// CountBigReader is CountReader with arbitrary-precision arithmetic: the
// single pass stays in uint64 until the first overflow and migrates to big
// integers only then, so the common case pays nothing for exactness.
func (s *Spanner) CountBigReader(r io.Reader) (n *big.Int, err error) {
	return s.CountBigReaderContext(context.Background(), r)
}
