// Package va implements variable-set automata (VA) as defined by Fagin et
// al. and used in Section 2 of "Constant delay algorithms for regular
// document spanners": finite-state automata over Σ extended with single
// variable-marker transitions x$ (open) and %x (close).
//
// The package provides the automaton model, an exhaustive reference
// evaluator (exponential, used as ground truth in tests), polynomial-time
// sequentiality and functionality checks, trimming, and the translations of
// Theorem 3.1 between VA and extended VA, including the variable-path
// construction whose 2^ℓ lower bound is Proposition 4.2.
package va

import (
	"fmt"
	"sort"
	"strings"

	"spanners/internal/model"
)

// MarkerEdge is a variable transition (q, m, q′) carrying a single marker.
type MarkerEdge struct {
	M  model.Marker
	To int
}

// VA is a variable-set automaton (Q, q0, F, δ). States are dense indices
// 0…NumStates−1. Letter transitions are labelled with byte classes (a class
// edge abbreviates one edge per member byte); marker transitions carry a
// single open or close marker.
type VA struct {
	reg     *model.Registry
	initial int
	final   []bool
	letters [][]model.Letter
	markers [][]MarkerEdge
}

// New returns an automaton with no states over the given registry.
func New(reg *model.Registry) *VA {
	return &VA{reg: reg, initial: -1}
}

// Build returns the automaton over reg with initial state initial, whose
// state q has finality final[q], letter transitions letters[q] and
// variable transitions markers[q]. It takes the slices over: constructions
// that know their edges up front carve the per-state lists from one
// backing array (model.Carve) instead of adding edges one at a time.
func Build(reg *model.Registry, initial int, final []bool, letters [][]model.Letter, markers [][]MarkerEdge) *VA {
	return &VA{reg: reg, initial: initial, final: final, letters: letters, markers: markers}
}

// AddState adds a fresh non-final state and returns its index.
func (a *VA) AddState() int {
	a.final = append(a.final, false)
	a.letters = append(a.letters, nil)
	a.markers = append(a.markers, nil)
	return len(a.final) - 1
}

// SetInitial marks q as the initial state.
func (a *VA) SetInitial(q int) { a.initial = q }

// SetFinal marks or unmarks q as final.
func (a *VA) SetFinal(q int, f bool) { a.final[q] = f }

// AddLetter adds the letter transition (from, class, to).
func (a *VA) AddLetter(from int, class model.ByteSet, to int) {
	a.letters[from] = append(a.letters[from], model.Letter{Class: class, To: to})
}

// AddByte adds the letter transition (from, {c}, to).
func (a *VA) AddByte(from int, c byte, to int) {
	a.AddLetter(from, model.Byte(c), to)
}

// AddMarker adds the variable transition (from, m, to).
func (a *VA) AddMarker(from int, m model.Marker, to int) {
	a.markers[from] = append(a.markers[from], MarkerEdge{M: m, To: to})
}

// AddOpen adds (from, x$, to) for the variable named x, registering it if
// needed.
func (a *VA) AddOpen(from int, name string, to int) error {
	v, err := a.reg.Add(name)
	if err != nil {
		return err
	}
	a.AddMarker(from, model.Open(v), to)
	return nil
}

// AddClose adds (from, %x, to) for the variable named x, registering it if
// needed.
func (a *VA) AddClose(from int, name string, to int) error {
	v, err := a.reg.Add(name)
	if err != nil {
		return err
	}
	a.AddMarker(from, model.CloseOf(v), to)
	return nil
}

// Registry returns the variable registry of the automaton.
func (a *VA) Registry() *model.Registry { return a.reg }

// Initial returns the initial state, or −1 if unset.
func (a *VA) Initial() int { return a.initial }

// IsFinal reports whether q ∈ F.
func (a *VA) IsFinal(q int) bool { return a.final[q] }

// NumStates returns |Q|.
func (a *VA) NumStates() int { return len(a.final) }

// NumTransitions returns the number of transition edges (a class edge
// counts once).
func (a *VA) NumTransitions() int {
	n := 0
	for q := range a.final {
		n += len(a.letters[q]) + len(a.markers[q])
	}
	return n
}

// Size returns |A| measured as states plus transition edges, the measure
// used throughout the paper.
func (a *VA) Size() int { return a.NumStates() + a.NumTransitions() }

// Letters returns the letter transitions leaving q. The slice is shared;
// callers must not mutate it.
func (a *VA) Letters(q int) []model.Letter { return a.letters[q] }

// Markers returns the variable transitions leaving q. The slice is shared;
// callers must not mutate it.
func (a *VA) Markers(q int) []MarkerEdge { return a.markers[q] }

// Finals returns the final states in increasing order.
func (a *VA) Finals() []int {
	var out []int
	for q, f := range a.final {
		if f {
			out = append(out, q)
		}
	}
	return out
}

// UsedVars returns the bitmap of variables mentioned by some transition,
// i.e. var(A).
func (a *VA) UsedVars() uint64 {
	var used uint64
	for q := range a.final {
		for _, e := range a.markers[q] {
			used |= 1 << e.M.Var
		}
	}
	return used
}

// Clone returns a deep copy sharing the registry.
func (a *VA) Clone() *VA {
	c := &VA{
		reg:     a.reg,
		initial: a.initial,
		final:   append([]bool(nil), a.final...),
		letters: make([][]model.Letter, len(a.letters)),
		markers: make([][]MarkerEdge, len(a.markers)),
	}
	for q := range a.letters {
		c.letters[q] = append([]model.Letter(nil), a.letters[q]...)
		c.markers[q] = append([]MarkerEdge(nil), a.markers[q]...)
	}
	return c
}

// Validate checks structural well-formedness: an initial state is set and
// every edge target is in range.
func (a *VA) Validate() error {
	if a.initial < 0 || a.initial >= a.NumStates() {
		return fmt.Errorf("va: initial state %d out of range", a.initial)
	}
	for q := range a.final {
		for _, e := range a.letters[q] {
			if e.To < 0 || e.To >= a.NumStates() {
				return fmt.Errorf("va: letter edge %d→%d out of range", q, e.To)
			}
			if e.Class.IsEmpty() {
				return fmt.Errorf("va: empty byte class on edge from %d", q)
			}
		}
		for _, e := range a.markers[q] {
			if e.To < 0 || e.To >= a.NumStates() {
				return fmt.Errorf("va: marker edge %d→%d out of range", q, e.To)
			}
		}
	}
	return nil
}

// String renders the automaton as one transition per line, for debugging
// and golden tests.
func (a *VA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "VA(states=%d, initial=%d, final=%v)\n", a.NumStates(), a.initial, a.Finals())
	for q := range a.final {
		letters := append([]model.Letter(nil), a.letters[q]...)
		sort.Slice(letters, func(i, j int) bool { return letters[i].To < letters[j].To })
		for _, e := range letters {
			fmt.Fprintf(&b, "  %d -%s-> %d\n", q, e.Class, e.To)
		}
		markers := append([]MarkerEdge(nil), a.markers[q]...)
		sort.Slice(markers, func(i, j int) bool {
			if markers[i].To != markers[j].To {
				return markers[i].To < markers[j].To
			}
			return markers[i].M.String(a.reg) < markers[j].M.String(a.reg)
		})
		for _, e := range markers {
			fmt.Fprintf(&b, "  %d -%s-> %d\n", q, e.M.String(a.reg), e.To)
		}
	}
	return b.String()
}
