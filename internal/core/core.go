// Package core implements the paper's primary contribution: the
// constant-delay evaluation algorithm for deterministic sequential extended
// variable-set automata (Section 3.2 of "Constant delay algorithms for
// regular document spanners", PODS 2018), together with the counting
// algorithm of Theorem 5.1.
//
// Evaluate (Algorithm 1) runs the preprocessing phase: one pass over the
// document, alternating the Capturing and Reading procedures, building the
// "reverse dual" DAG whose nodes are annotated marker sets (S, i) and whose
// paths to the sink ⊥ are exactly the accepting runs of the automaton.
// Preprocessing takes O(|A| × |d|) time. Stream is the same pass fed in
// chunks: Feed neither copies nor keeps a chunk, and Close takes the whole
// document, which the Result borrows; Evaluate is one Feed and Close.
// Enumeration (Algorithm 2) then walks the DAG depth-first, either
// push-based (Result.Enumerate) or pull-based (Result.Iterator), writing
// each output's spans straight into the iterator's output mapping; the
// delay between consecutive outputs is O(ℓ) in the number of variables —
// constant in the document.
//
// The paper's data structures (Section 3.2.2) live in one index-addressed
// arena per pass. Since Capturing adds every node it creates to exactly
// one list and Reading only splices existing elements, a DAG node and its
// list element are one 24-byte, pointer-free cell. Index 0 is nil; a list
// is a (head, tail) index pair, so lazycopy copies the pair; add prepends
// a new cell; appendList is the one write to an existing cell's next. A
// cell names its marker set by index into a small per-pass set table.
//
// Count (Algorithm 3, appendix C) runs the same rounds but keeps only the
// number of partial runs per state, computing |⟦A⟧d| in O(|A| × |d|).
//
// Both passes run on memoized round programs (memo.go). The live
// configuration is the ordered tuple of live states, interned once, and a
// pass keeps its node lists or counts per slot — per position in the tuple
// — beside it. The program of (configuration, byte class) replays one
// Capturing+Reading round without an interface call: the useful capture
// ops, the Reading moves and the next configuration. A capture is useful
// when its target reads the next byte (at the end, when it is accepting);
// the nodes of the others would die in the same round, so they are never
// built. A byte whose program fires no op and moves every slot onto itself
// costs one table load, as a DFA step does.
package core

import (
	"spanners/internal/model"
)

// Automaton is the deterministic sequential extended VA consumed by the
// evaluator. It is an interface rather than a concrete automaton so that
// on-the-fly constructions — notably the lazy determinizer, per the closing
// remark of Section 4 — can feed Algorithm 1 directly; state identifiers
// must be small dense integers but may be minted during evaluation.
//
// Correctness requires the automaton to be deterministic (per state, at
// most one letter successor per byte and at most one capture successor per
// exact marker set) and sequential (every accepting run is valid). The
// evaluator does not re-verify these properties; the eva package provides
// the checks and the constructions that establish them. An automaton
// shared by concurrent passes must be safe for concurrent calls.
type Automaton interface {
	// Initial returns the initial state.
	Initial() int
	// Step returns δ(q, c) for a letter transition, reporting whether it
	// is defined.
	Step(q int, c byte) (int, bool)
	// Captures returns the extended variable transitions leaving q. The
	// result must not be mutated and must be stable across calls.
	Captures(q int) []model.Capture
	// Accepting reports whether q is a final state.
	Accepting(q int) bool
	// Registry returns the variable registry of the automaton.
	Registry() *model.Registry
}
