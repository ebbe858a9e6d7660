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
//	res := s.Close(doc) // doc: every chunk fed, concatenated
//
// Feed neither copies nor keeps a chunk: the output mappings' spans refer
// to the whole document, which the caller hands to Close and the Result
// borrows. Whoever streams a document therefore owns its buffer (the
// spanner facade appends each chunk to a fresh one), and streaming bounds
// neither the DAG nor the document memory — it bounds latency: evaluation
// work is done by the time the last chunk arrives. A Stream is not
// goroutine-safe.
type Stream struct {
	e      *evaluation
	gate   accelGate
	pos    int
	closed bool
	// res and finals are the Close outputs, stored inline so a
	// scratch-backed pass closes without allocating: the Result and its
	// finals table are recycled with the rest of the scratch state.
	res    Result
	finals []list
}

// Scratch holds the reusable per-document state of a preprocessing pass:
// the Algorithm 1 tables, the memo of round programs, the arena backing
// the DAG, and the Stream/Result shells themselves. Reusing a Scratch
// across documents recycles all of it — the memo's programs too, while
// the automaton stays the same — so compile-once/evaluate-many workloads
// pay zero allocations per document once warm (the hotalloc analyzer
// proves the code path, and the AllocsPerRun tests in core pin the
// runtime behavior).
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

// Feed advances the pass over the next chunk of the document. The chunk
// is neither copied nor kept, so the caller may reuse it immediately; the
// Result's document is the one passed to Close. Feed panics if the stream
// is already closed.
//
// spanlint:hotpath — a chunk costs no allocation once the scratch is
// warm; hotalloc (cmd/spanlint) proves it transitively.
func (s *Stream) Feed(chunk []byte) {
	if s.closed {
		panic("core: Stream.Feed after Close")
	}
	s.process(chunk)
}

// process runs the rounds of chunk: one table load per byte whose
// program is relabel-only, a program replay otherwise.
//
// spanlint:hotpath — the per-byte scan loop; hotalloc (cmd/spanlint)
// proves it transitively allocation-free (arena and memo growth ride
// cap-guarded cold paths).
func (s *Stream) process(chunk []byte) {
	e := s.e
	m := &e.memo
	s.gate.next(len(chunk))
	i := 0
	for i < len(chunk) {
		if e.cur == deadConfig {
			// No state is live, and liveness can only shrink: the result is
			// already known to be empty, so the rest of the document only
			// advances the position.
			s.pos += len(chunk) - i
			return
		}
		c := e.cur
		x := m.trans[int(c)*m.stride+int(m.of[chunk[i]])]
		if x == 0 {
			x = m.build(c, int(m.of[chunk[i]]), chunk[i])
		}
		s.pos++
		i++
		if x&relabel == 0 {
			e.round(&m.progs[x-1], s.pos)
			continue
		}
		e.cur = int32(x &^ relabel)
		// A byte that relabeled the configuration onto itself was inert,
		// and so are the bytes after it that the memo knows inert in the
		// configuration: the scan jumps over them, only advancing the
		// position. The skip stops before any byte that could change the
		// configuration, so whatever is live at a chunk boundary simply
		// stays live into the next Feed.
		if e.cur == c && s.gate.on {
			n := s.gate.skip(m, e.cur, chunk, i)
			i += n
			s.pos += n
		}
	}
}

// Pos returns the number of document bytes consumed so far.
func (s *Stream) Pos() int { return s.pos }

// AccelSkippedBytes returns how many document bytes the pass bulk-skipped
// so far (0 when the automaton carries no Accelerator).
func (s *Stream) AccelSkippedBytes() int64 { return s.gate.skipped }

// AccelFellBack reports whether the effectiveness fallback disabled
// skipping for the rest of the document (candidate density too high).
func (s *Stream) AccelFellBack() bool { return s.gate.fellBack }

// Dead reports whether no automaton state is live: every run has died, so
// the eventual Result is guaranteed empty regardless of further input.
// Callers may use this to stop feeding early.
func (s *Stream) Dead() bool { return s.e.cur == deadConfig }

// Close runs the final Capturing(n+1) and returns the preprocessing
// Result, which borrows doc as its document: doc must be the concatenation
// of every chunk fed. Close is idempotent: subsequent calls return the same
// Result. The Result lives inside the Stream (and thus inside the Scratch
// when one backs the pass): scratch-backed Results are valid only until
// the scratch's next use, and closing allocates nothing.
//
// spanlint:hotpath — closes the Evaluate/EvaluateScratch chain without
// allocating; hotalloc (cmd/spanlint) enforces it.
func (s *Stream) Close(doc []byte) *Result {
	if s.closed {
		return &s.res
	}
	s.closed = true
	e := s.e
	p := e.memo.closing(e.cur)
	lists := e.capture(p, s.pos+1)
	s.finals = s.finals[:0]
	for _, mv := range e.memo.moves[p.mvLo:p.mvHi] {
		s.finals = append(s.finals, lists[mv.from])
	}
	s.res = Result{reg: e.memo.a.Registry(), ar: e.ar, doc: doc, finals: s.finals}
	return &s.res
}
