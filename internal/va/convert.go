package va

import (
	"slices"

	"spanners/internal/eva"
	"spanners/internal/model"
)

// ToExtended translates the VA into an equivalent extended VA following the
// construction in the proof of Theorem 3.1: letter transitions are copied,
// and for every variable-path between two states — a sequence of marker
// transitions using pairwise distinct markers — an extended transition
// labelled by the path's marker set is added. Sequentiality and
// functionality are preserved.
//
// The number of extended transitions can be exponential in the number of
// variables; Proposition 4.2 (reproduced by experiment E10) shows this is
// unavoidable for sequential VA. For functional VA, Lemma B.1 caps it at
// one extended transition per trimmed state pair, giving the m + n² bound
// of Proposition 4.3.
func (a *VA) ToExtended() *eva.EVA {
	n := a.NumStates()
	off := make([]int32, n+1)
	markers := 0
	for q := range n {
		off[q+1] = off[q] + int32(len(a.letters[q]))
		markers += len(a.markers[q])
	}
	letters := make([]model.Letter, 0, off[n])
	for q := range n {
		letters = append(letters, a.letters[q]...)
	}

	// For each source state, enumerate all (target, marker set) pairs
	// reachable through variable-paths, in one flat list: the captures of
	// p are caps[capOff[p]:capOff[p+1]]. It starts with room for one
	// capture per marker transition.
	type cfg struct {
		q int
		s model.Set
	}
	var (
		caps    = make([]model.Capture, 0, markers)
		capOff  = make([]int32, n+1)
		visited = make(map[cfg]bool)
		stack   []cfg
	)
	for p := range n {
		capOff[p] = int32(len(caps))
		if len(a.markers[p]) == 0 {
			continue
		}
		clear(visited)
		visited[cfg{p, model.Set{}}] = true
		stack = append(stack[:0], cfg{p, model.Set{}})
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range a.markers[c.q] {
				if c.s.Has(e.M) {
					continue // markers along a variable-path are distinct
				}
				nc := cfg{e.To, c.s.With(e.M)}
				if visited[nc] {
					continue
				}
				visited[nc] = true
				caps = append(caps, model.Capture{S: nc.s, To: nc.q})
				stack = append(stack, nc)
			}
		}
	}
	capOff[n] = int32(len(caps))
	return eva.Build(a.reg, a.initial, slices.Clone(a.final), model.Carve(letters, off), model.Carve(caps, capOff))
}

// FromExtended translates an extended VA back into an ordinary VA (the
// converse direction of Theorem 3.1): every extended transition (p, S, q)
// is expanded into a chain of |S| single-marker transitions through |S|−1
// fresh states, emitting the markers of S in the canonical order "all open
// markers before all close markers" as in the appendix construction.
//
// The expansion must not let a VA run chain two expanded transitions at the
// same document position — eVA runs take at most one extended transition
// per position — so each eVA state q is split into pre(q), from which
// capture chains depart, and post(q), entered at the end of a chain, which
// only carries letter transitions. Both inherit q's finality. (Without the
// split, an eVA with transitions (q,S,p)(p,S′,r) would gain the spurious
// mapping executing S ∪ S′ at one position; the appendix glosses over
// this, and the structured expansion repairs it.)
func FromExtended(e *eva.EVA) *VA {
	out := New(e.Registry())
	n := e.NumStates()
	pre := func(q int) int { return 2 * q }
	post := func(q int) int { return 2*q + 1 }
	for q := 0; q < n; q++ {
		p1 := out.AddState()
		p2 := out.AddState()
		out.SetFinal(p1, e.IsFinal(q))
		out.SetFinal(p2, e.IsFinal(q))
	}
	if e.Initial() >= 0 {
		out.SetInitial(pre(e.Initial()))
	}
	for q := 0; q < n; q++ {
		for _, t := range e.Letters(q) {
			out.AddLetter(pre(q), t.Class, pre(t.To))
			out.AddLetter(post(q), t.Class, pre(t.To))
		}
		for _, t := range e.Captures(q) {
			markers := t.S.Markers()
			cur := pre(q)
			for i, m := range markers {
				next := post(t.To)
				if i < len(markers)-1 {
					next = out.AddState()
				}
				out.AddMarker(cur, m, next)
				cur = next
			}
		}
	}
	return out
}
