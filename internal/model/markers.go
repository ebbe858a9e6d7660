package model

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Marker is a single variable marker: the open marker x⊢ (written x$ in the
// ASCII rendering of the paper) or the close marker ⊣x (written %x).
type Marker struct {
	Var   Var
	Close bool
}

// String renders the marker in the paper's ASCII notation using the names
// of reg, e.g. "x$" for open and "%x" for close.
func (m Marker) String(reg *Registry) string {
	if m.Close {
		return "%" + reg.Name(m.Var)
	}
	return reg.Name(m.Var) + "$"
}

// Set returns the singleton marker set {m}.
func (m Marker) Set() Set {
	if m.Close {
		return Set{close: 1 << m.Var}
	}
	return Set{open: 1 << m.Var}
}

// Open returns the open marker x$ for v.
func Open(v Var) Marker { return Marker{Var: v} }

// CloseOf returns the close marker %x for v.
func CloseOf(v Var) Marker { return Marker{Var: v, Close: true} }

// Set is a set of variable markers S ⊆ MarkersV, stored as two bitmaps
// indexed by Var: one for open markers and one for close markers. Set is
// comparable, so it can key maps directly (used when determinizing extended
// VA, which groups transitions by their exact marker set).
//
// The zero Set is the empty set. Extended variable transitions in an eVA
// always carry a non-empty Set; the empty set is used to express "no
// variable operation here" in runs.
type Set struct {
	open, close uint64
}

// SetOf builds a set from individual markers.
func SetOf(ms ...Marker) Set {
	var s Set
	for _, m := range ms {
		s = s.Union(m.Set())
	}
	return s
}

// IsEmpty reports whether s contains no markers.
func (s Set) IsEmpty() bool { return s.open == 0 && s.close == 0 }

// Len returns the number of markers in s.
func (s Set) Len() int { return bits.OnesCount64(s.open) + bits.OnesCount64(s.close) }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return Set{s.open | t.open, s.close | t.close} }

// Inter returns s ∩ t.
func (s Set) Inter(t Set) Set { return Set{s.open & t.open, s.close & t.close} }

// Minus returns s ∖ t.
func (s Set) Minus(t Set) Set { return Set{s.open &^ t.open, s.close &^ t.close} }

// Disjoint reports whether s ∩ t = ∅.
func (s Set) Disjoint(t Set) bool { return s.open&t.open == 0 && s.close&t.close == 0 }

// Contains reports whether t ⊆ s.
func (s Set) Contains(t Set) bool { return t.open&^s.open == 0 && t.close&^s.close == 0 }

// Has reports whether marker m ∈ s.
func (s Set) Has(m Marker) bool {
	if m.Close {
		return s.close&(1<<m.Var) != 0
	}
	return s.open&(1<<m.Var) != 0
}

// HasOpen reports whether x$ ∈ s.
func (s Set) HasOpen(v Var) bool { return s.open&(1<<v) != 0 }

// HasClose reports whether %x ∈ s.
func (s Set) HasClose(v Var) bool { return s.close&(1<<v) != 0 }

// With returns s ∪ {m}.
func (s Set) With(m Marker) Set { return s.Union(m.Set()) }

// Opens returns the bitmap of variables opened by s.
func (s Set) Opens() uint64 { return s.open }

// Closes returns the bitmap of variables closed by s.
func (s Set) Closes() uint64 { return s.close }

// Vars returns the bitmap of variables mentioned (opened or closed) by s.
func (s Set) Vars() uint64 { return s.open | s.close }

// RestrictVars returns the markers of s whose variable is in the bitmap.
func (s Set) RestrictVars(vars uint64) Set {
	return Set{s.open & vars, s.close & vars}
}

// Markers returns the markers of s in canonical order: all open markers by
// variable index, then all close markers by variable index. This is the
// order used when expanding an extended transition back into a chain of
// single-marker VA transitions (Theorem 3.1, appendix construction).
func (s Set) Markers() []Marker {
	out := make([]Marker, 0, s.Len())
	for b := s.open; b != 0; b &= b - 1 {
		out = append(out, Open(Var(bits.TrailingZeros64(b))))
	}
	for b := s.close; b != 0; b &= b - 1 {
		out = append(out, CloseOf(Var(bits.TrailingZeros64(b))))
	}
	return out
}

// Remap returns the set with every variable v replaced by f[v]. It is used
// when embedding an automaton's variables into a merged registry.
func (s Set) Remap(f []Var) Set {
	var out Set
	for b := s.open; b != 0; b &= b - 1 {
		out.open |= 1 << f[bits.TrailingZeros64(b)]
	}
	for b := s.close; b != 0; b &= b - 1 {
		out.close |= 1 << f[bits.TrailingZeros64(b)]
	}
	return out
}

// Less imposes a deterministic total order on sets (open bitmap major,
// close bitmap minor); used to sort transition lists for reproducible
// output.
func (s Set) Less(t Set) bool {
	if s.open != t.open {
		return s.open < t.open
	}
	return s.close < t.close
}

// String renders the set in the paper's notation, e.g. "{x$, %y}".
func (s Set) String(reg *Registry) string {
	ms := s.Markers()
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = m.String(reg)
	}
	// Sort open-before-close but alphabetical within, for stable tests.
	sort.Strings(parts[:bits.OnesCount64(s.open)])
	sort.Strings(parts[bits.OnesCount64(s.open):])
	return "{" + strings.Join(parts, ", ") + "}"
}

// GoString implements fmt.GoStringer with raw bitmaps, for debugging
// without a registry at hand.
func (s Set) GoString() string {
	return fmt.Sprintf("Set{open:%#x, close:%#x}", s.open, s.close)
}
