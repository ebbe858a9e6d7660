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
// Capturing(n+1). Time is O(|a| × |doc|): a round replays its memoized
// program, which touches each useful capture and each live state once and
// manipulates list pointers in O(1), and building a program on a miss
// costs one per-state round.
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
// embedded in Scratch so that its tables — the memo of round programs and
// the arena holding the DAG — can be recycled across documents.
type evaluation struct {
	ar   arena
	memo memo
	// cur is the live configuration; lists[k] is list_q from Algorithm 1
	// for the state q in its slot k. The live states are exactly those
	// with non-empty lists (the states reachable by some run over the
	// prefix processed so far).
	cur   int32
	lists []list
	// mid holds the middle configuration's lists while a program's ops
	// run, and next the next configuration's while its moves run.
	mid, next []list
	// base[q] is the set-table index of Captures(q)[0], or -1 until this
	// pass first makes a node for one of q's captures; a cell created by
	// Captures(q)[j] stores base[q]+j. Captures(q) is stable by contract,
	// so the indices hold for the whole pass, also for lazy automata.
	base []int32
}

// init prepares the evaluation for a fresh document, recycling the arena,
// the memo (when a is the automaton it was built for) and the table
// capacities left over from a previous pass.
func (e *evaluation) init(a Automaton) {
	e.memo.use(a)
	e.ar.reset()
	e.base = e.base[:0]
	e.cur = e.memo.start()
	e.lists = append(e.lists[:0], list{})
	e.lists[0].add(&e.ar, 0, 0, list{}) // ⊥
}

// round runs Capturing(pos) and Reading as program p prescribes.
// Capturing makes one node (S, pos) per useful capture (q, S, p′) of a
// live state, whose adjacency list is the lazy copy of list_q, and
// prepends it to list_p′; lists of states whose runs take no variable
// transition are left untouched — the S = ∅ case of the run shape.
// Reading then appends each middle list to its state's letter successor's;
// each list is appended to at most one target — the automaton is
// deterministic — which is what licenses the O(1) splice in
// list.appendList.
func (e *evaluation) round(p *program, pos int) {
	from := e.capture(p, pos)
	e.next = e.next[:0]
	for _, mv := range e.memo.moves[p.mvLo:p.mvHi] {
		if int(mv.to) == len(e.next) {
			e.next = append(e.next, from[mv.from]) // the slot opens
		} else {
			e.next[mv.to].appendList(from[mv.from], e.ar.cells)
		}
	}
	e.lists, e.next = e.next, e.lists
	e.cur = p.next
}

// capture runs the ops of p at position pos and returns the middle lists:
// the live lists themselves when p has no op. The ops read the starting
// lists (the lazy copies of Algorithm 1) and write a copy extended by the
// slots Capturing opens; newly awakened states fire no transition in the
// same round, since runs alternate capture and letter transitions.
func (e *evaluation) capture(p *program, pos int) []list {
	if p.opLo == p.opHi {
		return e.lists
	}
	mid := widen(e.mid, e.lists, int(p.nMid))
	ops := e.memo.ops[p.opLo:p.opHi]
	for k := range ops {
		o := &ops[k]
		base := int32(-1)
		if int(o.q) < len(e.base) {
			base = e.base[o.q]
		}
		if base < 0 {
			base = e.register(o.q)
		}
		// list.add by hand, since the call does not inline: the new node
		// heads middle slot o.mid's list.
		l := &mid[o.mid]
		c := e.ar.newCell(pos, uint32(base+o.j), e.lists[o.src], l.head)
		if l.head == 0 {
			l.tail = c
		}
		l.head = c
	}
	e.mid = mid
	return mid
}

// register adds the marker sets of state q to the set table, on the
// first node this pass makes for one of q's captures, and returns the
// index of the first.
func (e *evaluation) register(q int32) int32 {
	for len(e.base) <= int(q) {
		e.base = append(e.base, -1)
	}
	e.base[q] = int32(e.ar.addSets(e.memo.caps[q]))
	return e.base[q]
}

// Registry returns the variable registry of the evaluated automaton.
func (r *Result) Registry() *model.Registry { return r.reg }

// Document returns the evaluated document.
func (r *Result) Document() []byte { return r.doc }

// IsEmpty reports whether ⟦A⟧d = ∅, i.e. no accepting state was live after
// the final Capturing.
func (r *Result) IsEmpty() bool { return len(r.finals) == 0 }
