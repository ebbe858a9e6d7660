package eva

import (
	"fmt"

	"spanners/internal/model"
)

// This file implements the spanner algebra — union, projection and natural
// join — as automaton constructions on extended VA, following the closure
// results for regular spanners (Fagin et al.; Peterfreund et al.,
// "Complexity Bounds for Relational Algebra over Document Spanners").
// Composing before determinization keeps every composed spanner on the
// constant-delay evaluation path: the result of each construction feeds the
// ordinary trim → sequentialize → determinize pipeline.
//
// All three constructions assume their inputs are sequential (every
// accepting run is valid) — the shape the compilation pipeline always
// produces — and exploit it: the soundness argument for Project maps every
// accepting run of the output back to an accepting, hence valid, run of the
// input, and Join leaves cross-automaton marker conflicts on shared
// variables to be filtered by the downstream sequentialization product.

// Union returns an eVA denoting ⟦a⟧d ∪ ⟦b⟧d over the merged registry; it is
// UnionAll of the two operands.
func Union(a, b *EVA) (*EVA, error) { return UnionAll(a, b) }

// UnionAll returns an eVA denoting ⟦a1⟧d ∪ … ∪ ⟦ak⟧d over the merged
// registries: the disjoint sum of all operands with a single fresh initial
// state that copies the outgoing transitions (and finality) of every
// original initial state. Building the k-ary sum directly, instead of
// folding binary unions, adds one fresh state total rather than one per
// fold step and copies each operand exactly once (a left fold re-embeds the
// accumulated sum at every step, Θ(k²) copy work overall).
//
// Every accepting run of the result is an accepting run of exactly one
// operand, so sequential operands yield a sequential result. Mappings of
// one operand leave the other operands' private variables unassigned,
// matching the partial-function semantics of Section 2.
func UnionAll(as ...*EVA) (*EVA, error) {
	merged, vmaps, err := mergeRegistries(as)
	if err != nil {
		return nil, fmt.Errorf("eva: union: %w", err)
	}
	var out builder
	init := out.addState(false)
	out.begin()
	off := 1 // the state offset of the operand being embedded
	for i, a := range as {
		if p := a.initial; p >= 0 {
			out.final[init] = out.final[init] || a.final[p]
			out.copyOutgoing(a, p, off, vmaps[i])
		}
		off += a.NumStates()
	}
	off = 1
	for i, a := range as {
		for q := range a.NumStates() {
			out.addState(a.final[q])
			out.begin()
			out.copyOutgoing(a, q, off, vmaps[i])
		}
		off += a.NumStates()
	}
	return out.build(merged, init), nil
}

// mergeRegistries folds model.Merge over the operands' registries and
// returns, per operand, the variable remap into the merged registry.
// Merge keeps its first argument's names first, in order, so each step
// extends the accumulated registry without renumbering it and the vmaps of
// earlier operands stay valid across the fold.
func mergeRegistries(as []*EVA) (*model.Registry, [][]model.Var, error) {
	merged := model.NewRegistry()
	vmaps := make([][]model.Var, len(as))
	for i, a := range as {
		next, _, fromA, err := model.Merge(merged, a.Registry())
		if err != nil {
			return nil, nil, err
		}
		vmaps[i] = fromA
		merged = next
	}
	return merged, vmaps, nil
}

// copyOutgoing adds to the current state every outgoing transition of src
// state p, translated by the embedding offset off and variable remap.
func (b *builder) copyOutgoing(src *EVA, p, off int, vmap []model.Var) {
	for _, e := range src.letters[p] {
		b.letter(e.Class, off+e.To)
	}
	for _, e := range src.captures[p] {
		b.capture(e.S.Remap(vmap), off+e.To)
	}
}

// Project returns an eVA denoting π_keep(⟦a⟧d) = {µ|keep : µ ∈ ⟦a⟧d} over a
// fresh registry holding exactly the kept names (in the order given,
// duplicates collapsed). Every kept name must be registered in a. a must be
// sequential, so that every accepting run defines a mapping; the projected
// automaton's accepting runs are then exactly the images of a's.
//
// The construction restricts each capture transition's marker set to the
// kept variables. A transition whose set empties becomes an ε-move, which
// an eVA cannot carry and which must not be allowed to chain with another
// capture at the same document position: runs take at most one extended
// variable transition per position, so splicing two original captures
// together would manufacture mappings out of paths that are not runs —
// and a trimmed sequential automaton can still contain such untraversable
// capture chains (graph trimming over-approximates run reachability). The
// ε-moves are therefore eliminated over a pre/post split of the state
// space, the same device va.FromExtended uses: pre(q) is "at q, no capture
// taken at this position yet" and carries q's capture transitions, post(q)
// is "at q, capture already taken" and carries only q's letter
// transitions. Captures (whether kept or emptied) lead from pre states
// into post states, so an eliminated capture inherits exactly its target's
// letters and finality and can never reach a second capture.
func Project(a *EVA, keep ...string) (*EVA, error) {
	reg := model.NewRegistry()
	vmap := make([]model.Var, a.Registry().Len())
	var keepBits uint64
	for _, name := range keep {
		v, ok := a.Registry().Lookup(name)
		if !ok {
			return nil, fmt.Errorf("eva: project: variable %q not in spanner", name)
		}
		nv, err := reg.Add(name)
		if err != nil {
			return nil, fmt.Errorf("eva: project: %w", err)
		}
		vmap[v] = nv
		keepBits |= 1 << v
	}
	// Fast path: when no capture transition's marker set empties under the
	// restriction, there are no ε-moves to eliminate and the pre/post split
	// below (which doubles the state count fed into determinization) is
	// unnecessary — a plain per-transition rewrite suffices.
	needsSplit := false
	for q := 0; q < a.NumStates() && !needsSplit; q++ {
		for _, e := range a.captures[q] {
			if e.S.RestrictVars(keepBits).IsEmpty() {
				needsSplit = true
				break
			}
		}
	}
	var out builder
	if !needsSplit {
		for q := range a.NumStates() {
			out.addState(a.final[q])
			out.begin()
			for _, e := range a.letters[q] {
				out.letter(e.Class, e.To)
			}
			for _, e := range a.captures[q] {
				out.capture(e.S.RestrictVars(keepBits).Remap(vmap), e.To)
			}
		}
		return out.build(reg, a.initial), nil
	}

	pre := func(q int) int { return 2 * q }
	post := func(q int) int { return 2*q + 1 }
	for q := range a.NumStates() {
		out.addState(a.final[q])
		out.begin()
		for _, e := range a.letters[q] {
			// Reading a letter moves to the next position, where a capture
			// is allowed again: letters always land in pre states.
			out.letter(e.Class, pre(e.To))
		}
		for _, e := range a.captures[q] {
			s := e.S.RestrictVars(keepBits)
			if !s.IsEmpty() {
				out.capture(s.Remap(vmap), post(e.To))
				continue
			}
			// The whole set was projected away: an original run may cross
			// this edge silently, so pre(q) stands in for post(e.To) — its
			// letter transitions, and its finality when the capture was the
			// run's final move.
			for _, l := range a.letters[e.To] {
				out.letter(l.Class, pre(l.To))
			}
			if a.final[e.To] {
				out.final[pre(q)] = true
			}
		}
		// post(q) carries only q's letter transitions.
		out.addState(a.final[q])
		out.begin()
		for _, e := range a.letters[q] {
			out.letter(e.Class, pre(e.To))
		}
	}
	initial := -1
	if a.initial >= 0 {
		initial = pre(a.initial)
	}
	return out.build(reg, initial), nil
}

// Join returns an eVA denoting the natural join ⟦a⟧d ⋈ ⟦b⟧d = {µ1 ∪ µ2 :
// µ1 ∈ ⟦a⟧d, µ2 ∈ ⟦b⟧d, µ1 ~ µ2} over the merged registry, as the
// synchronized product of the two automata: both sides read every letter
// together (byte classes intersect), and at each position each side takes
// one of its capture transitions or idles, the combined transition carrying
// the union of the two (remapped) marker sets.
//
// The product does not decide compatibility on shared variables locally —
// it cannot: whether the other side will ever bind a shared variable is a
// global property of the run. Instead it emits every combination; a pair of
// runs that disagree on a shared variable makes the combined run open or
// close that variable twice, which the downstream sequentialization product
// (Proposition 4.1) — run by the compilation pipeline on every composed
// automaton — filters out. Pairs that agree merge their markers (set union
// is idempotent) into a single open and a single close, yielding µ1 ∪ µ2.
func Join(a, b *EVA) (*EVA, error) {
	merged, fromA, fromB, err := model.Merge(a.Registry(), b.Registry())
	if err != nil {
		return nil, fmt.Errorf("eva: join: %w", err)
	}
	var out builder
	if a.initial < 0 || b.initial < 0 {
		// One side accepts nothing, so the join is empty.
		initial := out.addState(false)
		return out.build(merged, initial), nil
	}
	type pair struct{ qa, qb int }
	index := make(map[pair]int)
	var work []pair
	intern := func(p pair) int {
		if id, ok := index[p]; ok {
			return id
		}
		id := out.addState(a.final[p.qa] && b.final[p.qb])
		index[p] = id
		work = append(work, p)
		return id
	}
	initial := intern(pair{a.initial, b.initial})
	for i := 0; i < len(work); i++ {
		p := work[i]
		out.begin()
		for _, ea := range a.letters[p.qa] {
			for _, eb := range b.letters[p.qb] {
				cls := ea.Class.Inter(eb.Class)
				if cls.IsEmpty() {
					continue
				}
				out.letter(cls, intern(pair{ea.To, eb.To}))
			}
		}
		// Capture moves: a transition on either side, the other side
		// optionally joining in. Both idling is the implicit "no capture
		// transition" and needs no edge.
		for _, ea := range a.captures[p.qa] {
			out.capture(ea.S.Remap(fromA), intern(pair{ea.To, p.qb}))
			for _, eb := range b.captures[p.qb] {
				s := ea.S.Remap(fromA).Union(eb.S.Remap(fromB))
				out.capture(s, intern(pair{ea.To, eb.To}))
			}
		}
		for _, eb := range b.captures[p.qb] {
			out.capture(eb.S.Remap(fromB), intern(pair{p.qa, eb.To}))
		}
	}
	return out.build(merged, initial), nil
}
