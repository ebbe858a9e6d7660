package eva

import "spanners/internal/model"

// Trim returns an equivalent automaton with only the states that are
// reachable from the initial state and co-reachable to a final state.
// Reachability here is graph reachability, which over-approximates
// reachability by (alternating) runs; the extra states are harmless and
// never fire during evaluation.
//
// When every state is useful, Trim returns the receiver itself. That is
// safe because an automaton is never mutated once built: the pipeline's
// constructions (Sequentialize, the algebra, determinization) all return
// new automata.
func (a *EVA) Trim() *EVA {
	n := a.NumStates()
	if a.initial < 0 || n == 0 {
		return New(a.reg)
	}
	off := make([]int32, n+1)
	for q := range n {
		off[q+1] = off[q] + int32(len(a.letters[q])+len(a.captures[q]))
	}
	succ := make([]int32, 0, off[n])
	for q := range n {
		for _, e := range a.letters[q] {
			succ = append(succ, int32(e.To))
		}
		for _, e := range a.captures[q] {
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
		model.TrimEdges(a.captures, keep, m, func(e *model.Capture) *int { return &e.To }))
}
