package core

// Stream is the incremental form of Algorithm 1: the same alternation of
// Capturing(i) and Reading(i) as Evaluate, but driven chunk-by-chunk so a
// document can be preprocessed as it arrives from the network or a pipe.
// The preprocessing pass is a single left-to-right scan, so streaming needs
// no lookahead and no re-reading: Feed advances the pass over each chunk,
// and Close runs the final Capturing(n+1) and assembles the Result.
//
//	s := core.NewStream(a, nil)
//	for each chunk { s.Feed(chunk) }
//	res := s.Close()
//
// The document bytes are retained internally (the output mappings' spans
// refer to them), so streaming bounds neither the DAG nor the document
// memory — it bounds latency: evaluation work is done by the time the last
// chunk arrives. A Stream is not goroutine-safe.
type Stream struct {
	e      *evaluation
	gate   accelGate
	buf    []byte
	pos    int
	closed bool
	res    *Result
	// resVal and finals are the Close outputs, stored inline so a
	// scratch-backed pass closes without allocating: the Result and its
	// finals table are recycled with the rest of the scratch state.
	resVal Result
	finals []list
}

// Scratch holds the reusable per-document state of a preprocessing pass:
// the Algorithm 1 tables, the arena backing the DAG, and the Stream/Result
// shells themselves. Reusing a Scratch across documents recycles all of it,
// so compile-once/evaluate-many workloads pay zero allocations per document
// once warm (the hotalloc analyzer proves the code path, and the
// AllocsPerRun tests in core pin the runtime behavior).
//
// Ownership rule: a Stream or Result obtained through a Scratch points into
// the scratch and is invalidated by the scratch's next use (the next
// NewStream or EvaluateScratch with it). Consume the Result completely
// (Enumerate, Collect, Count the matches) before reusing the scratch;
// mappings must be Cloned to outlive it (their clones hold plain span
// integers, not arena references). A Scratch is not goroutine-safe; pool one
// per worker (see the spanner facade's sync.Pool).
type Scratch struct {
	eval   evaluation
	stream Stream
}

// NewStream starts an incremental preprocessing pass of a over a document
// to be delivered via Feed. sc may be nil; when non-nil, its tables, arena
// and stream state are recycled, and both the returned Stream and the
// eventual Result are valid only until the scratch's next use.
//
// spanlint:hotpath — the warm-scratch path allocates nothing; hotalloc
// (cmd/spanlint) enforces it transitively.
func NewStream(a Automaton, sc *Scratch) *Stream {
	if sc == nil {
		sc = new(Scratch)
	}
	s, e := &sc.stream, &sc.eval
	finals := s.finals[:0]
	*s = Stream{e: e, finals: finals}
	e.init(a)
	s.gate.init(a)
	return s
}

// Feed advances the pass over the next chunk of the document. The chunk is
// copied into the stream's internal document buffer, so the caller may
// reuse it immediately. Feed panics if the stream is already closed.
func (s *Stream) Feed(chunk []byte) {
	if s.closed {
		panic("core: Stream.Feed after Close")
	}
	s.buf = append(s.buf, chunk...)
	s.process(chunk)
}

// FeedBorrowed advances the pass over the next chunk without copying it
// into the stream's internal document buffer. It exists for callers that
// already own the whole document and want to drive the pass in bounded
// steps (e.g. to check a context between them): they must hand the full
// document to CloseWith instead of relying on the accumulated buffer.
// Mixing Feed and FeedBorrowed on one stream corrupts the document buffer.
func (s *Stream) FeedBorrowed(chunk []byte) {
	if s.closed {
		panic("core: Stream.FeedBorrowed after Close")
	}
	s.process(chunk)
}

// CloseWith is Close with doc as the Result's document buffer; it is the
// closing half of the FeedBorrowed protocol. doc must be the concatenation
// of every chunk fed so far. CloseWith panics if the stream was fed through
// the copying Feed (the internal buffer already holds the document) or is
// already closed.
func (s *Stream) CloseWith(doc []byte) *Result {
	if s.closed {
		panic("core: Stream.CloseWith after Close")
	}
	if s.buf != nil {
		panic("core: Stream.CloseWith after copying Feed")
	}
	s.buf = doc
	return s.Close()
}

// process runs Capturing/Reading over chunk without touching the document
// buffer; Evaluate uses it directly to borrow the caller's slice instead of
// copying.
//
// spanlint:hotpath — the per-byte scan loop; hotalloc (cmd/spanlint)
// proves it transitively allocation-free (arena growth rides the
// cap-guarded cold path).
func (s *Stream) process(chunk []byte) {
	i, last := 0, 0
	for i < len(chunk) {
		if len(s.e.live) == 0 {
			// No state is live, and liveness can only shrink: the result is
			// already known to be empty, so the rest of the document only
			// advances the position.
			s.pos += len(chunk) - i
			return
		}
		// With exactly one live state, the automaton may know a run of
		// inert bytes — bytes whose Capturing+Reading round leaves the
		// configuration untouched — and the scan jumps over them, only
		// advancing the position. Partial matches near a chunk boundary
		// need no special casing: the skip stops before any byte that
		// could change the configuration, and whatever is live at the
		// boundary simply stays live into the next Feed.
		if s.gate.on {
			if q, ok := s.gate.scanState(s.e.live); ok {
				n := s.gate.trySkip(q, chunk[i:], i-last)
				last = i + n
				if n > 0 {
					i += n
					s.pos += n
					continue
				}
			}
		}
		s.pos++
		s.e.capturing(s.pos)
		s.e.reading(s.pos, chunk[i])
		i++
	}
}

// Pos returns the number of document bytes consumed so far.
func (s *Stream) Pos() int { return s.pos }

// AccelSkippedBytes returns how many document bytes the acceleration layer
// bulk-skipped so far (0 when the automaton carries no Accelerator).
func (s *Stream) AccelSkippedBytes() int64 { return s.gate.skipped }

// AccelFellBack reports whether the effectiveness fallback disabled
// acceleration for the rest of the document (candidate density too high).
func (s *Stream) AccelFellBack() bool { return s.gate.fellBack }

// Dead reports whether no automaton state is live: every run has died, so
// the eventual Result is guaranteed empty regardless of further input.
// Callers may use this to stop feeding early.
func (s *Stream) Dead() bool { return len(s.e.live) == 0 }

// Close runs the final Capturing(n+1) and returns the preprocessing
// Result. Close is idempotent: subsequent calls return the same Result.
// The Result lives inside the Stream (and thus inside the Scratch when
// one backs the pass): scratch-backed Results are valid only until the
// scratch's next use, exactly as before, and closing allocates nothing.
//
// spanlint:hotpath — closes the Evaluate/EvaluateScratch chain without
// allocating; hotalloc (cmd/spanlint) enforces it.
func (s *Stream) Close() *Result {
	if s.closed {
		return s.res
	}
	s.closed = true
	e := s.e
	e.capturing(s.pos + 1)
	s.finals = s.finals[:0]
	for _, q := range e.live {
		if e.a.Accepting(q) {
			s.finals = append(s.finals, e.lists[q])
		}
	}
	s.resVal = Result{reg: e.a.Registry(), ar: e.ar, doc: s.buf, finals: s.finals}
	s.res = &s.resVal
	return s.res
}
