package model

import (
	"fmt"
	"sort"
	"strings"
)

// Mapping is a partial function µ from variables to spans (Section 2 of the
// paper). Unlike the tuple semantics of Fagin et al., not every variable in
// the registry need be assigned; unassigned variables hold the zero Span.
//
// A Mapping is bound to a Registry, which supplies variable names. All
// cross-registry operations (Compatible, Union, Equal) match variables by
// name, so mappings produced by different spanners compose correctly.
type Mapping struct {
	reg   *Registry
	spans []Span
}

// NewMapping returns the empty mapping ∅ over reg.
func NewMapping(reg *Registry) *Mapping {
	return &Mapping{reg: reg, spans: make([]Span, reg.Len())}
}

// Registry returns the registry the mapping is bound to.
func (m *Mapping) Registry() *Registry { return m.reg }

// Spans returns µ's span table, indexed by variable, with the zero Span
// for an unassigned variable. The slice is µ's own storage: writing an
// entry assigns it, and it reflects every later change to µ.
func (m *Mapping) Spans() []Span { return m.spans }

// Assign sets µ(v) = s.
func (m *Mapping) Assign(v Var, s Span) { m.spans[v] = s }

// Unassign removes v from the domain of µ.
func (m *Mapping) Unassign(v Var) { m.spans[v] = Span{} }

// Get returns µ(v) and whether v ∈ dom(µ).
func (m *Mapping) Get(v Var) (Span, bool) {
	s := m.spans[v]
	return s, !s.IsZero()
}

// GetName returns µ(x) for the variable named x and whether it is defined.
func (m *Mapping) GetName(name string) (Span, bool) {
	v, ok := m.reg.Lookup(name)
	if !ok {
		return Span{}, false
	}
	return m.Get(v)
}

// DomainSize returns |dom(µ)|.
func (m *Mapping) DomainSize() int {
	n := 0
	for _, s := range m.spans {
		if !s.IsZero() {
			n++
		}
	}
	return n
}

// Domain returns the assigned variables in index order.
func (m *Mapping) Domain() []Var {
	out := make([]Var, 0, len(m.spans))
	for v, s := range m.spans {
		if !s.IsZero() {
			out = append(out, Var(v))
		}
	}
	return out
}

// IsEmpty reports whether µ = ∅.
func (m *Mapping) IsEmpty() bool { return m.DomainSize() == 0 }

// Clone returns an independent copy of µ.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{reg: m.reg, spans: make([]Span, len(m.spans))}
	copy(c.spans, m.spans)
	return c
}

// Compatible reports µ1 ~ µ2: the two mappings agree on every variable
// (matched by name) in dom(µ1) ∩ dom(µ2).
func (m *Mapping) Compatible(o *Mapping) bool {
	for v, s := range m.spans {
		if s.IsZero() {
			continue
		}
		os, ok := o.GetName(m.reg.Name(Var(v)))
		if ok && os != s {
			return false
		}
	}
	return true
}

// Union returns µ1 ∪ µ2 over the target registry reg (which must contain
// every assigned variable of both mappings by name). Where both assign a
// variable, they must agree; call Compatible first.
func (m *Mapping) Union(o *Mapping, reg *Registry) (*Mapping, error) {
	out := NewMapping(reg)
	put := func(src *Mapping) error {
		for v, s := range src.spans {
			if s.IsZero() {
				continue
			}
			name := src.reg.Name(Var(v))
			tv, ok := reg.Lookup(name)
			if !ok {
				return fmt.Errorf("model: union target registry lacks variable %q", name)
			}
			if prev := out.spans[tv]; !prev.IsZero() && prev != s {
				return fmt.Errorf("model: incompatible union on variable %q: %v vs %v", name, prev, s)
			}
			out.spans[tv] = s
		}
		return nil
	}
	if err := put(m); err != nil {
		return nil, err
	}
	if err := put(o); err != nil {
		return nil, err
	}
	return out, nil
}

// Project returns µ|Y for the variable names in keep, bound to reg (which
// must contain each kept name that µ assigns).
func (m *Mapping) Project(keep []string, reg *Registry) (*Mapping, error) {
	out := NewMapping(reg)
	for _, name := range keep {
		s, ok := m.GetName(name)
		if !ok {
			continue
		}
		tv, ok := reg.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("model: projection registry lacks variable %q", name)
		}
		out.spans[tv] = s
	}
	return out, nil
}

// Equal reports whether the two mappings denote the same partial function,
// matching variables by name.
func (m *Mapping) Equal(o *Mapping) bool {
	return m.Key() == o.Key()
}

// Key returns a canonical string encoding of µ: assigned variables in
// lexicographic name order with their spans. Two mappings are equal exactly
// when their keys are equal; MappingSet uses keys for deduplication.
func (m *Mapping) Key() string {
	type pair struct {
		name string
		s    Span
	}
	pairs := make([]pair, 0, len(m.spans))
	for v, s := range m.spans {
		if !s.IsZero() {
			pairs = append(pairs, pair{m.reg.Name(Var(v)), s})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].name < pairs[j].name })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s=[%d,%d)", p.name, p.s.Start, p.s.End)
	}
	return b.String()
}

// String renders µ like "{name ↦ [1, 5⟩, email ↦ [7, 13⟩}".
func (m *Mapping) String() string {
	type pair struct {
		name string
		s    Span
	}
	pairs := make([]pair, 0, len(m.spans))
	for v, s := range m.spans {
		if !s.IsZero() {
			pairs = append(pairs, pair{m.reg.Name(Var(v)), s})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].name < pairs[j].name })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s ↦ %s", p.name, p.s)
	}
	b.WriteByte('}')
	return b.String()
}
