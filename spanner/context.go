// Context-aware evaluation: every phase of the paper's algorithms is a
// left-to-right scan (preprocessing, counting) or a constant-delay
// replay (enumeration), so cancellation points can be threaded through
// without touching the per-byte hot loops — the passes run in bounded
// chunks and check the context between chunks, and enumerations check
// between bounded runs of matches. A cancelled call returns ctx.Err()
// promptly: within O(ctxChunk) scan work or O(ctxCheckMatches) yields.
//
// These entry points cost one ctx.Err() load per 64 KiB of document (or per
// 256 matches). The plain entry points run the same path with
// context.Background(): Enumerate, Preprocess, Count, CountBig, IsEmpty and
// the Reader variants call their Context twins, Iterator and
// Evaluation.Enumerate the evaluate and drain wrappers.
package spanner

import (
	"context"
	"io"
	"math/big"

	"spanners/internal/core"
)

// ctxChunk is the scan granularity of the context-aware passes: the
// preprocessing and counting loops run this many bytes between
// cancellation checks.
const ctxChunk = 64 << 10

// ctxCheckMatches is how many matches the context-aware enumerations yield
// between cancellation checks.
const ctxCheckMatches = 256

// EnumerateContext is Enumerate with cancellation: the preprocessing pass
// checks ctx between 64 KiB chunks and the enumeration between bounded
// runs of matches. It returns ctx.Err() if the context is cancelled before
// the evaluation completes, nil otherwise (including on early stop via
// yield).
func (s *Spanner) EnumerateContext(ctx context.Context, doc []byte, yield func(*Match) bool) error {
	sc := getScratch()
	defer putScratch(sc)
	res, err := s.evaluateContext(ctx, doc, &sc.eval)
	if err != nil {
		return err
	}
	return s.drainContext(ctx, res, yield)
}

// feedChunks hands doc to feed in ctxChunk steps, checking ctx before
// every step and once more at the end. It stops early once dead reports
// that no run survives: the rest of the document cannot change the
// outcome.
func feedChunks(ctx context.Context, doc []byte, feed func(chunk []byte), dead func() bool) error {
	for off := 0; off < len(doc) && !dead(); off += ctxChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		feed(doc[off:min(off+ctxChunk, len(doc))])
	}
	return ctx.Err()
}

// evaluateContext runs the Algorithm 1 preprocessing pass over doc in
// cancellable chunks. The Result borrows doc and, when sc is non-nil, the
// scratch's tables and arena; it is then valid only until the scratch's
// next use, so only the bounded-lifetime entry points pass one.
func (s *Spanner) evaluateContext(ctx context.Context, doc []byte, sc *core.Scratch) (*core.Result, error) {
	st := core.NewStream(s.automaton(), sc)
	if err := feedChunks(ctx, doc, st.Feed, st.Dead); err != nil {
		return nil, err
	}
	res := st.Close(doc)
	s.noteAccel(st.AccelSkippedBytes(), st.AccelFellBack())
	return res, nil
}

// drainContext walks every output of a preprocessing Result through a
// fresh Match scratch buffer, stopping early when yield returns false, and
// checks ctx every ctxCheckMatches yields.
func (s *Spanner) drainContext(ctx context.Context, res *core.Result, yield func(*Match) bool) error {
	it := s.iterate(res)
	for n := 0; ; n++ {
		if n%ctxCheckMatches == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		m, ok := it.Next()
		if !ok {
			return nil
		}
		if !yield(m) {
			return nil
		}
	}
}

// drain is drainContext for Evaluation.Enumerate, which has no Context
// twin.
func (s *Spanner) drain(res *core.Result, yield func(*Match) bool) {
	_ = s.drainContext(context.Background(), res, yield)
}

// PreprocessContext is Preprocess with cancellation: the pass checks ctx
// between chunks, and a cancelled call returns (nil, ctx.Err()) with the
// pooled scratch already returned. The engine's ProcessContext runs it on
// the workers so that cancelling a batch also aborts in-flight documents.
func (s *Spanner) PreprocessContext(ctx context.Context, doc []byte) (*Evaluation, error) {
	sc := getScratch()
	res, err := s.evaluateContext(ctx, doc, &sc.eval)
	if err != nil {
		putScratch(sc)
		return nil, err
	}
	return &Evaluation{s: s, sc: sc, res: res}, nil
}

// countContext runs the chunked, cancellable counting pass over doc in a
// pooled CountStream; total reads the closed stream.
func (s *Spanner) countContext(ctx context.Context, doc []byte, total func(*core.CountStream)) error {
	sc := getScratch()
	defer putScratch(sc)
	cs := &sc.count
	cs.Reset(s.automaton())
	if err := feedChunks(ctx, doc, cs.Feed, cs.Dead); err != nil {
		return err
	}
	total(cs)
	s.noteAccel(cs.AccelSkippedBytes(), cs.AccelFellBack())
	return nil
}

// CountContext is Count with cancellation.
func (s *Spanner) CountContext(ctx context.Context, doc []byte) (count uint64, exact bool, err error) {
	err = s.countContext(ctx, doc, func(cs *core.CountStream) {
		count, exact = cs.Count()
	})
	if err != nil {
		return 0, false, err
	}
	return count, exact, nil
}

// CountBigContext is CountBig with cancellation. The single pass counts in
// uint64 and migrates to big integers only on the first overflow.
func (s *Spanner) CountBigContext(ctx context.Context, doc []byte) (n *big.Int, err error) {
	err = s.countContext(ctx, doc, func(cs *core.CountStream) {
		n = cs.CountBig()
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// EnumerateReaderContext is EnumerateReader with cancellation: ctx is
// checked before every Read, between evaluation chunks, and during the
// enumeration. The returned error is ctx.Err() on cancellation or the
// first read error from r.
//
// Cancellation is observed between Reads; a Read that is itself blocked is
// not interrupted (plain io.Reader offers no way to). If r can stall
// indefinitely — a network stream, a pipe — wrap it in a reader that
// honors deadlines itself. The same caveat applies to the other
// *ReaderContext entry points.
func (s *Spanner) EnumerateReaderContext(ctx context.Context, r io.Reader, yield func(*Match) bool) error {
	sc := getScratch()
	defer putScratch(sc)
	res, err := s.streamResultContext(ctx, r, sc)
	if err != nil {
		return err
	}
	return s.drainContext(ctx, res, yield)
}

// CountReaderContext is CountReader with cancellation.
func (s *Spanner) CountReaderContext(ctx context.Context, r io.Reader) (count uint64, exact bool, err error) {
	err = s.countStreamContext(ctx, r, func(cs *core.CountStream) {
		count, exact = cs.Count()
	})
	if err != nil {
		return 0, false, err
	}
	return count, exact, nil
}

// CountBigReaderContext is CountBigReader with cancellation.
func (s *Spanner) CountBigReaderContext(ctx context.Context, r io.Reader) (n *big.Int, err error) {
	err = s.countStreamContext(ctx, r, func(cs *core.CountStream) {
		n = cs.CountBig()
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}
