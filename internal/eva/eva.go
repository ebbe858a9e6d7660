// Package eva implements extended variable-set automata (eVA), the
// syntactic variant of VA introduced in Section 3.1 of "Constant delay
// algorithms for regular document spanners". An eVA groups all variable
// operations that happen between two letters into a single extended
// variable transition labelled by a non-empty set of markers, and its runs
// alternate extended variable transitions with letter transitions. This
// streamlined shape is what makes the constant-delay evaluation algorithm
// of Section 3.2 possible.
//
// The package provides the automaton model, an exhaustive reference
// evaluator, polynomial sequentiality/functionality checks, trimming,
// subset-construction determinization (Proposition 3.2) in both strict and
// lazy (on-the-fly) forms, and sequentialization via the per-variable
// status product that underlies Proposition 4.1.
package eva

import (
	"fmt"
	"sort"
	"strings"

	"spanners/internal/model"
)

// EVA is an extended variable-set automaton (Q, q0, F, δ). Letter
// transitions are labelled with byte classes; extended variable transitions
// ("captures") are labelled with non-empty marker sets.
type EVA struct {
	reg      *model.Registry
	initial  int
	final    []bool
	letters  [][]model.Letter
	captures [][]model.Capture
}

// New returns an automaton with no states over the given registry.
func New(reg *model.Registry) *EVA {
	return &EVA{reg: reg, initial: -1}
}

// Build returns the automaton over reg with initial state initial, whose
// state q has finality final[q], letter transitions letters[q] and
// extended variable transitions captures[q]. It takes the slices over:
// constructions that know their edges up front carve the per-state lists
// from one backing array (model.Carve) instead of adding edges one at a
// time.
func Build(reg *model.Registry, initial int, final []bool, letters [][]model.Letter, captures [][]model.Capture) *EVA {
	return &EVA{reg: reg, initial: initial, final: final, letters: letters, captures: captures}
}

// AddState adds a fresh non-final state and returns its index.
func (a *EVA) AddState() int {
	a.final = append(a.final, false)
	a.letters = append(a.letters, nil)
	a.captures = append(a.captures, nil)
	return len(a.final) - 1
}

// SetInitial marks q as the initial state.
func (a *EVA) SetInitial(q int) { a.initial = q }

// SetFinal marks or unmarks q as final.
func (a *EVA) SetFinal(q int, f bool) { a.final[q] = f }

// AddLetter adds the letter transition (from, class, to).
func (a *EVA) AddLetter(from int, class model.ByteSet, to int) {
	a.letters[from] = append(a.letters[from], model.Letter{Class: class, To: to})
}

// AddByte adds the letter transition (from, {c}, to).
func (a *EVA) AddByte(from int, c byte, to int) {
	a.AddLetter(from, model.Byte(c), to)
}

// AddCapture adds the extended variable transition (from, S, to). It panics
// if S is empty: the empty set is expressed by taking no transition.
func (a *EVA) AddCapture(from int, s model.Set, to int) {
	if s.IsEmpty() {
		panic("eva: extended variable transitions must carry a non-empty marker set")
	}
	a.captures[from] = append(a.captures[from], model.Capture{S: s, To: to})
}

// Registry returns the variable registry of the automaton.
func (a *EVA) Registry() *model.Registry { return a.reg }

// Initial returns the initial state, or −1 if unset.
func (a *EVA) Initial() int { return a.initial }

// IsFinal reports whether q ∈ F.
func (a *EVA) IsFinal(q int) bool { return a.final[q] }

// Accepting reports whether q ∈ F; alias satisfying the evaluator's
// automaton interface.
func (a *EVA) Accepting(q int) bool { return a.final[q] }

// NumStates returns |Q|.
func (a *EVA) NumStates() int { return len(a.final) }

// NumTransitions returns the number of transition edges (a class edge
// counts once).
func (a *EVA) NumTransitions() int {
	n := 0
	for q := range a.final {
		n += len(a.letters[q]) + len(a.captures[q])
	}
	return n
}

// NumCaptureTransitions returns only the number of extended variable
// transitions — the quantity bounded below by 2^ℓ in Proposition 4.2.
func (a *EVA) NumCaptureTransitions() int {
	n := 0
	for q := range a.final {
		n += len(a.captures[q])
	}
	return n
}

// Size returns |A| measured as states plus transition edges.
func (a *EVA) Size() int { return a.NumStates() + a.NumTransitions() }

// Letters returns the letter transitions leaving q; shared slice, do not
// mutate.
func (a *EVA) Letters(q int) []model.Letter { return a.letters[q] }

// Captures returns the extended variable transitions leaving q; shared
// slice, do not mutate.
func (a *EVA) Captures(q int) []model.Capture { return a.captures[q] }

// Finals returns the final states in increasing order.
func (a *EVA) Finals() []int {
	var out []int
	for q, f := range a.final {
		if f {
			out = append(out, q)
		}
	}
	return out
}

// UsedVars returns the bitmap of variables mentioned by some transition.
func (a *EVA) UsedVars() uint64 {
	var used uint64
	for q := range a.final {
		for _, e := range a.captures[q] {
			used |= e.S.Vars()
		}
	}
	return used
}

// Clone returns a deep copy sharing the registry.
func (a *EVA) Clone() *EVA {
	c := &EVA{
		reg:      a.reg,
		initial:  a.initial,
		final:    append([]bool(nil), a.final...),
		letters:  make([][]model.Letter, len(a.letters)),
		captures: make([][]model.Capture, len(a.captures)),
	}
	for q := range a.letters {
		c.letters[q] = append([]model.Letter(nil), a.letters[q]...)
		c.captures[q] = append([]model.Capture(nil), a.captures[q]...)
	}
	return c
}

// IsDeterministic reports whether δ is a partial function: per state, at
// most one target per byte and at most one target per exact marker set.
// Note that, as the paper stresses, a deterministic eVA may still have many
// runs over a document — determinism guarantees each run defines a distinct
// mapping, which is what enumeration without repetition needs.
func (a *EVA) IsDeterministic() bool {
	for q := range a.final {
		var covered model.ByteSet
		for _, e := range a.letters[q] {
			if !covered.Inter(e.Class).IsEmpty() {
				return false
			}
			covered = covered.Union(e.Class)
		}
		seen := make(map[model.Set]bool, len(a.captures[q]))
		for _, e := range a.captures[q] {
			if seen[e.S] {
				return false
			}
			seen[e.S] = true
		}
	}
	return true
}

// Step implements deterministic letter transitions: the unique p with
// δ(q, c) = p. It scans the class edges of q; deterministic automata
// produced by Determinize keep these lists short and disjoint.
func (a *EVA) Step(q int, c byte) (int, bool) {
	for _, e := range a.letters[q] {
		if e.Class.Has(c) {
			return e.To, true
		}
	}
	return 0, false
}

// Validate checks structural well-formedness.
func (a *EVA) Validate() error {
	if a.initial < 0 || a.initial >= a.NumStates() {
		return fmt.Errorf("eva: initial state %d out of range", a.initial)
	}
	for q := range a.final {
		for _, e := range a.letters[q] {
			if e.To < 0 || e.To >= a.NumStates() {
				return fmt.Errorf("eva: letter edge %d→%d out of range", q, e.To)
			}
			if e.Class.IsEmpty() {
				return fmt.Errorf("eva: empty byte class on edge from %d", q)
			}
		}
		for _, e := range a.captures[q] {
			if e.To < 0 || e.To >= a.NumStates() {
				return fmt.Errorf("eva: capture edge %d→%d out of range", q, e.To)
			}
			if e.S.IsEmpty() {
				return fmt.Errorf("eva: empty marker set on edge from %d", q)
			}
		}
	}
	return nil
}

// String renders the automaton one transition per line.
func (a *EVA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "eVA(states=%d, initial=%d, final=%v)\n", a.NumStates(), a.initial, a.Finals())
	for q := range a.final {
		letters := append([]model.Letter(nil), a.letters[q]...)
		sort.Slice(letters, func(i, j int) bool { return letters[i].To < letters[j].To })
		for _, e := range letters {
			fmt.Fprintf(&b, "  %d -%s-> %d\n", q, e.Class, e.To)
		}
		caps := append([]model.Capture(nil), a.captures[q]...)
		sort.Slice(caps, func(i, j int) bool {
			if caps[i].To != caps[j].To {
				return caps[i].To < caps[j].To
			}
			return caps[i].S.Less(caps[j].S)
		})
		for _, e := range caps {
			fmt.Fprintf(&b, "  %d -%s-> %d\n", q, e.S.String(a.reg), e.To)
		}
	}
	return b.String()
}
