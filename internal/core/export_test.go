package core

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// DumpDAG renders the reverse-dual DAG reachable from the final lists in a
// deterministic textual form, so tests can compare the structure built by
// Algorithm 1 against Figure 6 of the paper. Nodes are numbered in
// discovery order (breadth-first from the final lists, list order).
func DumpDAG(r *Result) string {
	ids := make(map[*node]int)
	var order []*node
	var visitList func(l list) []int
	visitList = func(l list) []int {
		var out []int
		if l.empty() {
			return out
		}
		for e := l.head; ; e = e.next {
			if _, ok := ids[e.n]; !ok {
				ids[e.n] = len(order)
				order = append(order, e.n)
			}
			out = append(out, ids[e.n])
			if e == l.tail {
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
		n := order[i]
		if n.pos == 0 {
			fmt.Fprintf(&b, "n%d: ⊥\n", i)
			continue
		}
		children := visitList(n.list)
		fmt.Fprintf(&b, "n%d: (%s, %d) -> %v\n", i, n.set.String(r.reg), n.pos, children)
	}
	return b.String()
}

// NodeCount returns the number of DAG nodes allocated during preprocessing
// (excluding ⊥), used to check the worked example against Figure 6 and to
// measure memory in the experiments.
func NodeCount(r *Result) int { return r.ar.nNodes - 1 }

// ElementCount returns the number of list elements allocated.
func ElementCount(r *Result) int { return r.ar.nElems }

// FinalListSizes returns the lengths of the accepting states' node lists in
// sorted order.
func FinalListSizes(r *Result) []int {
	var out []int
	for _, l := range r.finals {
		n := 0
		if !l.empty() {
			for e := l.head; ; e = e.next {
				n++
				if e == l.tail {
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
