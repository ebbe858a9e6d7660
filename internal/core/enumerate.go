package core

import (
	"math/bits"

	"spanners/internal/model"
)

// Iterator enumerates ⟦A⟧d from a Result with constant delay (Algorithm 2):
// a depth-first traversal of the reverse-dual DAG using an explicit stack.
// Every root-to-⊥ path is one accepting run; since the automaton is
// deterministic, distinct paths yield distinct mappings, so the enumeration
// is duplicate-free. Path length is bounded by the number of markers (the
// positions along a path strictly decrease and each node consumes at least
// one of the 2ℓ markers), so the work between two consecutive outputs — and
// before the first and after the last — is O(ℓ): constant in the document.
//
// The *model.Mapping returned by Next is a scratch buffer owned by the
// iterator, valid until the following Next call; Clone it to retain it.
type Iterator struct {
	r        *Result
	finalIdx int
	stack    []frame
	// out is the output mapping and spans its span table, into which apply
	// writes the marker positions of the current DFS path; vars is the
	// bitmap of variables closed on the path. Each frame saves the previous
	// bitmap for O(1) undo.
	out   *model.Mapping
	spans []model.Span
	vars  uint64
	// steps counts stack operations; tests use the per-output delta to
	// verify the constant-delay bound structurally rather than by timing.
	steps uint64
}

// frame is one level of the DFS: the remaining cells of a node list, and
// the variable bitmap to restore when the list is exhausted (the bitmap
// before its owner node was applied; for the top-level final lists, the
// empty bitmap).
type frame struct {
	cur, tail uint32
	prevVars  uint64
}

// Iterator returns a fresh constant-delay iterator over the result. The
// Result may be iterated multiple times concurrently; each Iterator is
// independent but individually not goroutine-safe. The stack is allocated
// once, beyond its bound, so it never regrows: a path holds the final
// list's frame and one frame per node, at most 2ℓ nodes since each
// consumes at least one of the 2ℓ markers.
func (r *Result) Iterator() *Iterator {
	out := model.NewMapping(r.reg)
	return &Iterator{r: r, out: out, spans: out.Spans(), stack: make([]frame, 0, 2*r.reg.Len()+2)}
}

// Next returns the next output mapping, or ok = false when the enumeration
// is complete.
func (it *Iterator) Next() (m *model.Mapping, ok bool) {
	cells := it.r.ar.cells
	for {
		if len(it.stack) == 0 {
			if it.finalIdx >= len(it.r.finals) {
				return nil, false
			}
			l := it.r.finals[it.finalIdx]
			it.finalIdx++
			it.steps++
			if !l.empty() {
				it.stack = append(it.stack, frame{cur: l.head, tail: l.tail, prevVars: it.vars})
			}
			continue
		}
		f := &it.stack[len(it.stack)-1]
		if f.cur == 0 {
			// List exhausted: undo the owner node's markers and pop.
			it.steps++
			it.vars = f.prevVars
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		c := &cells[f.cur]
		if f.cur == f.tail {
			f.cur = 0 // iteration is bounded by tail, not by next == 0
		} else {
			f.cur = c.next
		}
		it.steps++
		if c.pos == 0 {
			// ⊥ reached: the path holds a complete accepting run.
			return it.emit(), true
		}
		prev := it.vars
		it.apply(c)
		it.stack = append(it.stack, frame{cur: c.adj.head, tail: c.adj.tail, prevVars: prev})
	}
}

// apply writes the marker positions of node (S, i) into the output
// mapping. The traversal runs backwards through the document, so closes
// are seen before their opens; validity of runs guarantees each variable
// is touched at most once per path.
func (it *Iterator) apply(c *cell) {
	set := it.r.ar.sets[c.set]
	for b := set.Opens(); b != 0; b &= b - 1 {
		it.spans[bits.TrailingZeros64(b)].Start = c.pos
	}
	for b := set.Closes(); b != 0; b &= b - 1 {
		it.spans[bits.TrailingZeros64(b)].End = c.pos
	}
	it.vars |= set.Closes()
}

// emit completes the output mapping in O(ℓ): every variable the current
// path closes holds the span apply wrote, and any other may still hold an
// earlier path's positions, so it is cleared.
func (it *Iterator) emit() *model.Mapping {
	for v := range it.spans {
		if it.vars&(1<<v) == 0 {
			it.spans[v] = model.Span{}
		}
	}
	return it.out
}

// Steps returns the cumulative number of elementary traversal operations
// performed so far; the difference between two outputs bounds the delay
// structurally.
func (it *Iterator) Steps() uint64 { return it.steps }

// Enumerate walks all outputs push-style, invoking yield for each mapping.
// The mapping passed to yield is a reused buffer, valid only during the
// call; Clone it to retain. Enumeration stops early if yield returns
// false.
func (r *Result) Enumerate(yield func(*model.Mapping) bool) {
	it := r.Iterator()
	for {
		m, ok := it.Next()
		if !ok {
			return
		}
		if !yield(m) {
			return
		}
	}
}

// Collect materializes all outputs into a MappingSet; intended for tests
// and small results (it defeats the purpose of constant-delay streaming on
// large ones).
func (r *Result) Collect() *model.MappingSet {
	out := model.NewMappingSet()
	r.Enumerate(func(m *model.Mapping) bool {
		out.Add(m.Clone())
		return true
	})
	return out
}
