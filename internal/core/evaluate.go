package core

import (
	"spanners/internal/model"
)

// Result is the output of the preprocessing phase: the reverse-dual DAG
// plus the node lists of the accepting states. It supports repeated
// enumeration (each Iterator/Enumerate call walks the same DAG) and owns
// the arena backing the DAG.
//
// A Result produced through a Scratch (EvaluateScratch, NewStream with a
// non-nil scratch) borrows the scratch's arena and is invalidated the next
// time the scratch is used; see Scratch.
type Result struct {
	reg    *model.Registry
	finals []list
	ar     arena
	doc    []byte
}

// Evaluate runs Algorithm 1: the preprocessing phase of the constant-delay
// evaluation of the deterministic sequential eVA a over doc. It alternates
// Capturing(i) and Reading(i) over the document positions, maintaining for
// every live state q the list of reverse-dual DAG nodes that represent the
// last variable transitions of runs ending in q, and finishes with
// Capturing(n+1). Time is O(|a| × |doc|); both procedures touch each
// transition of each live state once per position and manipulate list
// pointers in O(1).
//
// Evaluate is the whole-document form of the incremental Stream: it feeds
// doc in one piece and closes. The Result borrows doc (it is not copied).
//
// spanlint:hotpath — hotalloc (cmd/spanlint) proves the evaluation chain
// transitively allocation-free; without a scratch the Stream/evaluation
// shells themselves are the only per-call allocations (nil-init cold
// path), with one the pass allocates nothing once warm.
func Evaluate(a Automaton, doc []byte) *Result {
	return EvaluateScratch(a, doc, nil)
}

// EvaluateScratch is Evaluate with reusable per-document scratch state. A
// nil scratch is allowed and behaves like Evaluate. With a non-nil scratch
// the returned Result points into the scratch's arena: it is valid only
// until the scratch's next use, so the caller must fully consume (or
// Collect) it first.
//
// spanlint:hotpath — with a warm scratch a whole pass allocates nothing;
// the AllocsPerRun tests in this package pin that at runtime, hotalloc
// (cmd/spanlint) proves it statically.
func EvaluateScratch(a Automaton, doc []byte, sc *Scratch) *Result {
	s := NewStream(a, sc)
	s.Feed(doc)
	return s.Close(doc)
}

// evaluation is the mutable state of one preprocessing pass. It is
// embedded in Scratch so that its tables — and the arena holding the DAG —
// can be recycled across documents.
type evaluation struct {
	a    Automaton
	ar   arena
	live liveSet
	// lists[k] is list_q from Algorithm 1 for the state q in slot k: the
	// live states are exactly those with non-empty lists (the states
	// reachable by some run over the prefix processed so far).
	lists []list
	// base[q] is the set-table index of Captures(q)[0], or -1 until
	// Capturing first fires q's captures in this pass; a cell created by
	// Captures(q)[j] stores base[q]+j. Captures(q) is stable by contract,
	// so the indices hold for the whole pass, also for lazy automata.
	base []int
	// olds is scratch storage, parallel to the slots a procedure starts
	// from, holding the lazy copies of their lists.
	olds []list
}

// init prepares the evaluation for a fresh document, recycling the arena
// and table capacities left over from a previous pass.
func (e *evaluation) init(a Automaton) {
	e.a = a
	e.ar.reset()
	e.base, e.lists = e.base[:0], e.lists[:0]
	e.live.reset(a.Initial())
	e.at(0).add(&e.ar, 0, 0, list{}) // ⊥
}

// at returns the list of slot k, which add may have just opened.
func (e *evaluation) at(k int) *list {
	if k == len(e.lists) {
		e.lists = append(e.lists, list{})
	}
	return &e.lists[k]
}

// capturing simulates the extended variable transitions taken immediately
// before reading letter i (Capturing(i) in Algorithm 1). It first takes a
// lazy copy of every live list, then, for each live state q and each
// capture transition (q, S, p), creates a node (S, i) whose adjacency list
// is the lazy copy of list_q, and prepends it to list_p. Lists of states
// whose runs take no variable transition here are left untouched — that is
// the S = ∅ case of the run shape.
func (e *evaluation) capturing(i int) {
	// lazycopy: value copies of (head, tail). Iterate only over the slots
	// live before this procedure; newly awakened target states must not
	// fire transitions in the same round (runs alternate capture and
	// letter transitions).
	e.olds = append(e.olds[:0], e.lists...)
	for k, old := range e.olds {
		q := e.live.states[k]
		caps := e.a.Captures(q)
		if len(caps) == 0 {
			continue
		}
		for len(e.base) <= q {
			e.base = append(e.base, -1)
		}
		if e.base[q] < 0 {
			e.base[q] = int(e.ar.addSets(caps))
		}
		base := uint32(e.base[q])
		for j, t := range caps {
			e.at(e.live.add(t.To)).add(&e.ar, i, base+uint32(j), old)
		}
	}
}

// reading simulates reading letter c (Reading(i) in Algorithm 1): every
// live list is moved aside and re-attached to the letter successor of its
// state, appending when two letter transitions enter the same state. Each
// old list is appended to exactly one target — the automaton is
// deterministic — which is what licenses the O(1) splice in
// list.appendList.
func (e *evaluation) reading(c byte) {
	from := e.live.turn()
	e.olds, e.lists = e.lists, e.olds[:0]
	for k, q := range from {
		t, ok := e.a.Step(q, c)
		if !ok {
			continue // the runs ending in q die at this letter
		}
		e.at(e.live.add(t)).appendList(e.olds[k], e.ar.cells)
	}
}

// Registry returns the variable registry of the evaluated automaton.
func (r *Result) Registry() *model.Registry { return r.reg }

// Document returns the evaluated document.
func (r *Result) Document() []byte { return r.doc }

// IsEmpty reports whether ⟦A⟧d = ∅, i.e. no accepting state was live after
// the final Capturing.
func (r *Result) IsEmpty() bool { return len(r.finals) == 0 }
