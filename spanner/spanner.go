// Package spanner is the public facade of this repository: it compiles a
// regex formula once into a reusable document spanner and evaluates it over
// many documents with the constant-delay algorithms of "Constant delay
// algorithms for regular document spanners" (Florenzano, Riveros, Ugarte,
// Vansummeren, Vrgoč, PODS 2018).
//
// Compile runs the whole pipeline — parse → variable-set automaton
// (Thompson + ε-elimination) → extended VA (Theorem 3.1) → trim →
// sequentialize if needed (Proposition 4.1) → determinize (Proposition
// 3.2) — exactly once. The returned *Spanner is goroutine-safe and
// amortizes compilation across documents:
//
//	s, err := spanner.Compile(`.*!user{[a-z]+}@!host{[a-z.]+}.*`)
//	...
//	for m := range s.All(doc) {
//	    span, _ := m.Span("user")
//	    text, _ := m.Text("user")
//	    ...
//	}
//
// Two determinization strategies are available, filling one transition
// table. The default strict mode (WithStrict) fills every reachable row of
// the deterministic automaton at Compile time and freezes the table,
// making the per-byte scan cost a class lookup and a table load. Lazy mode
// (WithLazy) determinizes on the fly, filling rows only as documents
// demand them — the closing remark of Section 4 — which avoids the 2^n
// worst case for automata whose reachable subset space is large but
// rarely touched.
package spanner

import (
	"context"
	"iter"
	"math/big"
	"sync/atomic"
	"time"

	"spanners/internal/core"
	"spanners/internal/eva"
	"spanners/internal/rgx"
)

// Mode selects the determinization strategy fixed at Compile time.
type Mode int

const (
	// ModeStrict materializes the deterministic automaton at Compile time
	// and evaluates it through a dense next-state table.
	ModeStrict Mode = iota
	// ModeLazy determinizes on the fly during evaluation, minting subset
	// states as documents reach them and memoizing them across documents.
	ModeLazy
)

// String returns "strict" or "lazy".
func (m Mode) String() string {
	if m == ModeLazy {
		return "lazy"
	}
	return "strict"
}

// Option configures Compile.
type Option func(*config)

type config struct {
	mode Mode
	// noOptimize disables the logical plan optimizer in Query.Compile;
	// pattern compilation ignores it.
	noOptimize bool
	// noPrefilter disables the scan loops' skipping of inert bytes.
	noPrefilter bool
}

// WithStrict selects strict (ahead-of-time) determinization; the default.
func WithStrict() Option { return func(c *config) { c.mode = ModeStrict } }

// WithLazy selects lazy (on-the-fly) determinization.
//
// Concurrency contract: a lazy Spanner is safe for concurrent use, and its
// scans (preprocessing, counting) run in parallel like a strict one's. The
// shared on-the-fly determinizer guards its own table: a pass calls into
// it only when its round-program memo misses, and each call holds the
// table's lock just long enough to read or fill one entry. Stats never
// locks: the discovered-state counter is atomic, so it may be polled
// during evaluations.
//
// The lock-free half of this contract is machine-checked by cmd/spanlint:
// the lockorder analyzer's spanlint:nolock check proves that Stats takes
// no mutex and calls no same-package function that does.
func WithLazy() Option { return func(c *config) { c.mode = ModeLazy } }

// WithMode selects the determinization mode explicitly.
func WithMode(m Mode) Option { return func(c *config) { c.mode = m } }

// WithoutPrefilter disables scan acceleration: the evaluator runs the
// round of every byte instead of bulk-skipping the bytes a configuration's
// round programs prove inert (those that relabel it onto itself), found
// with memchr-class search. Outputs are identical either way — a skipped
// round is the identity — so this option exists for the differential
// tests that prove it, and as an escape hatch if a workload ever measures
// slower with acceleration than without (the built-in density fallback
// should make that unnecessary).
func WithoutPrefilter() Option { return func(c *config) { c.noPrefilter = true } }

// WithoutOptimization disables the logical plan optimizer in Query.Compile:
// the query tree is lowered exactly as written (nested unions stay chains
// of binary sums, projections stay where they are, nothing is deduplicated
// or reordered). Pattern compilation is unaffected. Intended for debugging
// and for the differential tests that prove the optimizer semantics
// preserving.
func WithoutOptimization() Option { return func(c *config) { c.noOptimize = true } }

// Stats describes the compiled pipeline: the sizes of the intermediate
// automata and the cost of the chosen determinization strategy.
type Stats struct {
	Pattern string
	// Vars are the capture variables in registry order.
	Vars []string
	Mode Mode
	// Sequentialized reports whether the Proposition 4.1 status product was
	// needed (the eVA compiled from the pattern was not sequential).
	Sequentialized bool
	// VAStates/VATransitions measure the ε-free VA compiled from the
	// pattern; EVAStates/EVATransitions the sequential eVA actually
	// determinized.
	VAStates, VATransitions   int
	EVAStates, EVATransitions int
	// DetStates is the number of deterministic subset states: the full
	// count in strict mode, the number discovered so far in lazy mode.
	DetStates int
	// DenseTableBytes is the size of the strict path's next-state table
	// (byte-class compressed: one row per byte equivalence class, plus the
	// shared 256→class map); zero in lazy mode.
	DenseTableBytes int
	// ByteClasses is the number of byte equivalence classes the transition
	// rows are indexed by: the frozen table's in strict mode, the sequential
	// eVA's in lazy mode (each discovered state owns one row of
	// ByteClasses entries, padded to a power of two).
	ByteClasses int
	// PrefilterEnabled reports whether the scans of this spanner skip
	// inert bytes: the WithoutPrefilter option was not given. Which bytes
	// are inert is learnt per configuration during evaluation.
	PrefilterEnabled bool
	// PrefilterSkippedBytes is the total number of document bytes the
	// acceleration layer bulk-skipped across this spanner's lifetime, over
	// every evaluation and counting pass. PrefilterFallbacks counts the
	// documents on which the density fallback disabled acceleration
	// mid-scan. Both are read atomically, like DetStates in lazy mode.
	PrefilterSkippedBytes int64
	PrefilterFallbacks    int64
	CompileTime           time.Duration
}

// Spanner is a compiled document spanner. It is immutable from the caller's
// perspective and safe for concurrent use by multiple goroutines, in both
// modes: concurrent evaluations scan and enumerate in parallel. In lazy
// mode they share the on-the-fly determinizer, which guards its own table
// (see WithLazy).
type Spanner struct {
	pattern string
	mode    Mode
	vars    []string
	stats   Stats

	dense *eva.Compiled // strict path; nil in lazy mode
	lazy  *eva.Lazy     // lazy path; nil in strict mode

	// accSkipped/accFallbacks aggregate the scan-acceleration counters
	// across evaluations; Stats surfaces them as PrefilterSkippedBytes and
	// PrefilterFallbacks.
	accSkipped   atomic.Int64
	accFallbacks atomic.Int64
}

// noteAccel folds one evaluation's acceleration counters into the
// spanner-lifetime aggregates.
func (s *Spanner) noteAccel(skipped int64, fellBack bool) {
	if skipped != 0 {
		s.accSkipped.Add(skipped)
	}
	if fellBack {
		s.accFallbacks.Add(1)
	}
}

// Compile parses pattern and compiles it into a reusable Spanner.
func Compile(pattern string, opts ...Option) (*Spanner, error) {
	n, err := rgx.Parse(pattern)
	if err != nil {
		return nil, err
	}
	return compileNode(pattern, n, opts)
}

// MustCompile is Compile but panics on error; for tests and fixed patterns.
func MustCompile(pattern string, opts ...Option) *Spanner {
	s, err := Compile(pattern, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// CompileNode compiles an already-parsed regex formula.
func CompileNode(n rgx.Node, opts ...Option) (*Spanner, error) {
	return compileNode(n.String(), n, opts)
}

// compileNode compiles the formula n, whose source is pattern.
func compileNode(pattern string, n rgx.Node, opts []Option) (*Spanner, error) {
	start := time.Now()
	v, err := rgx.Compile(n)
	if err != nil {
		return nil, err
	}
	seq, sequentialized := sequentialEVA(v.ToExtended())
	s, err := compileEVA(pattern, seq, sequentialized, start, opts)
	if err != nil {
		return nil, err
	}
	s.stats.VAStates = v.NumStates()
	s.stats.VATransitions = v.NumTransitions()
	return s, nil
}

// compileEVA finishes the pipeline from the trimmed sequential eVA that
// sequentialEVA returns (sequentialized is its second result): it
// determinizes seq per the chosen mode. It is shared by compileNode and
// Query.Compile; start anchors CompileTime at the caller's entry.
func compileEVA(pattern string, seq *eva.EVA, sequentialized bool, start time.Time, opts []Option) (*Spanner, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	s := &Spanner{
		pattern: pattern,
		mode:    cfg.mode,
		vars:    seq.Registry().Names(),
		stats: Stats{
			Pattern:        pattern,
			Vars:           seq.Registry().Names(),
			Mode:           cfg.mode,
			Sequentialized: sequentialized,
			EVAStates:      seq.NumStates(),
			EVATransitions: seq.NumTransitions(),
		},
	}
	// Both modes evaluate an eva table.
	var table interface {
		DisableAccel()
		NumClasses() int
	}
	if cfg.mode == ModeLazy {
		s.lazy = eva.NewLazy(seq)
		table = s.lazy
	} else {
		dense, err := seq.Compile()
		if err != nil {
			return nil, err
		}
		s.dense = dense
		table = dense
		s.stats.DetStates = dense.NumStates()
		s.stats.DenseTableBytes = dense.TableBytes()
	}
	s.stats.PrefilterEnabled = !cfg.noPrefilter
	if cfg.noPrefilter {
		table.DisableAccel()
	}
	s.stats.ByteClasses = table.NumClasses()
	s.stats.CompileTime = time.Since(start)
	return s, nil
}

// sequentialEVA trims the eVA and, when it is not already sequential, takes
// the Proposition 4.1 status product. The result is the automaton both
// determinization strategies start from.
func sequentialEVA(e *eva.EVA) (seq *eva.EVA, sequentialized bool) {
	e = e.Trim()
	if e.IsSequential() {
		return e, false
	}
	return e.Sequentialize().Trim(), true
}

// Pipeline compiles pattern all the way to the deterministic sequential eVA
// that strict-mode spanners evaluate. It is the single owner of the
// pipeline order; the internal test suites build on it when they need the
// raw automaton for core.Evaluate rather than the facade.
func Pipeline(pattern string) (*eva.EVA, error) {
	n, err := rgx.Parse(pattern)
	if err != nil {
		return nil, err
	}
	return PipelineNode(n)
}

// PipelineNode is Pipeline over an already-parsed formula.
func PipelineNode(n rgx.Node) (*eva.EVA, error) {
	v, err := rgx.Compile(n)
	if err != nil {
		return nil, err
	}
	seq, _ := sequentialEVA(v.ToExtended())
	return seq.Determinize(), nil
}

// Pattern returns the source pattern: the regex formula for plain
// compiles, or the canonical query syntax (see ParseQuery) for spanners
// compiled from a Query, so the result always parses back into an
// equivalent spanner (Compile for formulas, ParseQuery + Query.Compile for
// queries).
func (s *Spanner) Pattern() string { return s.pattern }

// String returns the source pattern; see Pattern.
func (s *Spanner) String() string { return s.pattern }

// Vars returns the capture variable names in registry order. The slice is
// shared; do not mutate.
func (s *Spanner) Vars() []string { return s.vars }

// Mode returns the determinization mode fixed at Compile time.
func (s *Spanner) Mode() Mode { return s.mode }

// Stats returns the pipeline statistics. In lazy mode DetStates reflects
// the subset states discovered so far, so it grows as documents are
// evaluated; the counter is read atomically, so Stats neither blocks nor
// is blocked by concurrent evaluations — monitoring surfaces (the CLI's
// -stats, spannerd's /debug/vars) may poll it freely. The lock-free
// property is enforced by the lockorder analyzer (cmd/spanlint).
//
// spanlint:nolock
func (s *Spanner) Stats() Stats {
	st := s.stats
	if s.lazy != nil {
		st.DetStates = s.lazy.StatesDiscovered()
	}
	st.PrefilterSkippedBytes = s.accSkipped.Load()
	st.PrefilterFallbacks = s.accFallbacks.Load()
	return st
}

// automaton returns the evaluator the scan passes drive: the dense table
// in strict mode, the on-the-fly determinizer in lazy mode.
func (s *Spanner) automaton() core.Automaton {
	if s.lazy != nil {
		return s.lazy
	}
	return s.dense
}

// Iterator preprocesses doc (one O(|A|·|doc|) pass) and returns a pull
// iterator whose Next yields successive matches with O(ℓ) delay — constant
// in the document. The *Match returned by Next is a scratch buffer reused
// across calls; Clone it to retain it.
func (s *Spanner) Iterator(doc []byte) *Iterator {
	return s.iterate(s.evaluate(doc))
}

// evaluate is evaluateContext for Iterator, which has no Context twin. It
// passes no scratch: the Result escapes into the Iterator, whose lifetime
// the facade does not control.
func (s *Spanner) evaluate(doc []byte) *core.Result {
	res, _ := s.evaluateContext(context.Background(), doc, nil) // cannot fail
	return res
}

// iterate returns a pull iterator over the outputs of a preprocessing
// Result, with a fresh Match scratch buffer.
func (s *Spanner) iterate(res *core.Result) *Iterator {
	return &Iterator{
		it: res.Iterator(),
		m:  &Match{doc: res.Document(), names: s.vars, reg: res.Registry()},
	}
}

// Enumerate preprocesses doc and streams every match to yield, stopping
// early when yield returns false. The *Match passed to yield is reused
// across calls; Clone it to retain it (clones hold plain span offsets and
// stay valid indefinitely).
func (s *Spanner) Enumerate(doc []byte, yield func(*Match) bool) {
	_ = s.EnumerateContext(context.Background(), doc, yield)
}

// All returns a range-over-func iterator over the matches in doc:
//
//	for m := range s.All(doc) { ... }
//
// The *Match is reused across iterations; Clone it to retain it.
func (s *Spanner) All(doc []byte) iter.Seq[*Match] {
	return func(yield func(*Match) bool) { s.Enumerate(doc, yield) }
}

// Count returns |⟦A⟧doc| in O(|A|·|doc|) without enumerating (Theorem 5.1).
// exact is false only when the count does not fit in uint64; count is then
// its low 64 bits, and CountBig has the full value.
func (s *Spanner) Count(doc []byte) (count uint64, exact bool) {
	count, exact, _ = s.CountContext(context.Background(), doc) // cannot fail
	return count, exact
}

// CountBig is Count with arbitrary-precision arithmetic.
func (s *Spanner) CountBig(doc []byte) *big.Int {
	n, _ := s.CountBigContext(context.Background(), doc) // cannot fail
	return n
}

// IsEmpty reports whether doc has no matches. It runs the counting pass,
// which needs only O(states) memory and stops where the automaton dies,
// rather than materializing the enumeration DAG.
func (s *Spanner) IsEmpty(doc []byte) bool {
	n, exact := s.Count(doc)
	return exact && n == 0
}
