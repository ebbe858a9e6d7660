package core

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strings"
)

// DumpDAG renders the reverse-dual DAG reachable from the final lists in a
// deterministic textual form, so tests can compare the structure built by
// Algorithm 1 against Figure 6 of the paper. Nodes are numbered in
// discovery order (breadth-first from the final lists, list order).
func DumpDAG(r *Result) string {
	cells := r.ar.cells
	ids := make(map[uint32]int)
	var order []uint32
	var visitList func(l list) []int
	visitList = func(l list) []int {
		var out []int
		if l.empty() {
			return out
		}
		for c := l.head; ; c = cells[c].next {
			if _, ok := ids[c]; !ok {
				ids[c] = len(order)
				order = append(order, c)
			}
			out = append(out, ids[c])
			if c == l.tail {
				break
			}
		}
		return out
	}

	var b strings.Builder
	for i, l := range r.finals {
		fmt.Fprintf(&b, "final[%d]: %v\n", i, visitList(l))
	}
	for i := 0; i < len(order); i++ {
		c := cells[order[i]]
		if c.pos == 0 {
			fmt.Fprintf(&b, "n%d: ⊥\n", i)
			continue
		}
		children := visitList(c.adj)
		fmt.Fprintf(&b, "n%d: (%s, %d) -> %v\n", i, r.ar.sets[c.set].String(r.reg), c.pos, children)
	}
	return b.String()
}

// NodeCount returns the number of DAG nodes allocated during preprocessing
// (the cells minus the nil sentinel and ⊥), used to check the worked
// example against Figure 6 and to measure memory in the experiments.
func NodeCount(r *Result) int { return len(r.ar.cells) - 2 }

// SameDAG reports whether two Results hold identical arenas: the same
// cells, index for index, and the same set table.
func SameDAG(a, b *Result) bool {
	return slices.Equal(a.ar.cells, b.ar.cells) && slices.Equal(a.ar.sets, b.ar.sets)
}

// EvaluatePerState is Evaluate on the test-only per-state reference pass
// (perstate_test.go) with the replay's lookahead: it builds the same DAG.
func EvaluatePerState(a Automaton, doc []byte) *Result { return evaluatePerState(a, doc, true) }

// EvaluateUnpruned is the per-state reference pass without the lookahead:
// Algorithm 1 as the paper states it, dead-on-arrival nodes included.
func EvaluateUnpruned(a Automaton, doc []byte) *Result { return evaluatePerState(a, doc, false) }

// CountPerState is the per-state, unpruned, big-arithmetic counting
// reference (perstate_test.go).
var CountPerState = countPerState

// SetMemoBudget sets the size past which a memo flushes on its next miss
// and returns a function restoring the previous budget. A budget of 0
// flushes on every miss, so every round a pass runs rebuilds its program
// from a memo holding only the configuration in progress.
func SetMemoBudget(n int) (restore func()) {
	old := memoBudget
	memoBudget = n
	return func() { memoBudget = old }
}

// FinalListSizes returns the lengths of the accepting states' node lists in
// sorted order.
func FinalListSizes(r *Result) []int {
	var out []int
	for _, l := range r.finals {
		n := 0
		if !l.empty() {
			for c := l.head; ; c = r.ar.cells[c].next {
				n++
				if c == l.tail {
					break
				}
			}
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// CountDoc feeds doc to a fresh CountStream as one chunk and returns its
// Count: the whole-document form of the counting pass.
func CountDoc(a Automaton, doc []byte) (count uint64, exact bool) {
	s := NewCountStream(a)
	s.Feed(doc)
	return s.Count()
}

// CountDocBig is CountDoc with the arbitrary-precision total.
func CountDocBig(a Automaton, doc []byte) *big.Int {
	s := NewCountStream(a)
	s.Feed(doc)
	return s.CountBig()
}
