package va

import "spanners/internal/model"

// Trim returns an equivalent automaton containing only useful states: those
// reachable from the initial state and co-reachable to some final state.
// Trimming matters for the size bounds of Section 4 — Lemma B.1, for
// example, only holds for states "that can produce valid runs" — and keeps
// the determinization and variable-path constructions from exploring dead
// parts of the state space.
//
// When every state is useful, Trim returns the receiver itself. That is
// safe because an automaton is never mutated once built: the pipeline's
// constructions all return new automata.
func (a *VA) Trim() *VA {
	n := a.NumStates()
	if a.initial < 0 || n == 0 {
		return New(a.reg)
	}
	off := make([]int32, n+1)
	for q := range n {
		off[q+1] = off[q] + int32(len(a.letters[q])+len(a.markers[q]))
	}
	succ := make([]int32, 0, off[n])
	for q := range n {
		for _, e := range a.letters[q] {
			succ = append(succ, int32(e.To))
		}
		for _, e := range a.markers[q] {
			succ = append(succ, int32(e.To))
		}
	}
	keep, m := model.Useful(a.initial, a.final, off, succ)
	if m == n {
		return a
	}
	final := make([]bool, m)
	for q, k := range keep {
		if k >= 0 {
			final[k] = a.final[q]
		}
	}
	return Build(a.reg, int(keep[a.initial]), final,
		model.TrimEdges(a.letters, keep, m, func(e *model.Letter) *int { return &e.To }),
		model.TrimEdges(a.markers, keep, m, func(e *MarkerEdge) *int { return &e.To }))
}
