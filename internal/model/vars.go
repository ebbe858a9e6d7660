// Package model defines the basic data model shared by every other package
// in this repository: capture variables and their registries, variable
// markers and marker sets, byte classes, document spans, mappings, and sets
// of mappings with the relational operations (join, union, projection) that
// the spanner algebra of Fagin et al. is built on.
//
// The definitions follow Section 2 of "Constant delay algorithms for regular
// document spanners" (Florenzano, Riveros, Ugarte, Vansummeren, Vrgoč,
// PODS 2018). Positions are 1-based and spans are half-open intervals
// [i, j⟩ with 1 ≤ i ≤ j ≤ |d|+1, exactly as in the paper, so the worked
// examples of the paper can be transcribed verbatim into tests.
package model

import "fmt"

// MaxVars is the maximum number of capture variables a single automaton or
// expression may use. Marker sets are represented as a pair of 64-bit
// bitmaps (one for open markers, one for close markers), which keeps all
// marker-set algebra O(1) in the evaluation inner loops.
const MaxVars = 64

// Var identifies a capture variable as an index into a Registry.
type Var uint8

// Registry assigns dense indices to variable names. Automata, regex
// formulas and mappings each carry a registry so that marker sets and span
// assignments can be stored positionally. Registries are append-only; Add
// is idempotent per name.
type Registry struct {
	names []string
	index map[string]Var
}

// NewRegistry returns an empty variable registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]Var)}
}

// NewRegistryOf returns a registry containing the given names in order.
// It panics if the names exceed MaxVars or repeat; it is intended for
// tests and generators with known-good inputs.
func NewRegistryOf(names ...string) *Registry {
	r := NewRegistry()
	for _, n := range names {
		if _, ok := r.index[n]; ok {
			panic(fmt.Sprintf("model: duplicate variable %q", n))
		}
		if _, err := r.Add(n); err != nil {
			panic(err)
		}
	}
	return r
}

// Add returns the index for name, registering it if necessary. It fails
// once MaxVars distinct names are in use.
func (r *Registry) Add(name string) (Var, error) {
	if v, ok := r.index[name]; ok {
		return v, nil
	}
	if len(r.names) >= MaxVars {
		return 0, fmt.Errorf("model: too many variables (limit %d)", MaxVars)
	}
	v := Var(len(r.names))
	r.names = append(r.names, name)
	r.index[name] = v
	return v, nil
}

// MustAdd is Add but panics on error; for tests and static constructions.
func (r *Registry) MustAdd(name string) Var {
	v, err := r.Add(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Lookup returns the index of name and whether it is registered.
func (r *Registry) Lookup(name string) (Var, bool) {
	v, ok := r.index[name]
	return v, ok
}

// Name returns the name of variable v. It panics if v is out of range.
func (r *Registry) Name(v Var) string { return r.names[v] }

// Len returns the number of registered variables.
func (r *Registry) Len() int { return len(r.names) }

// Names returns the registered names in index order. The slice is a copy.
func (r *Registry) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Clone returns an independent copy of the registry.
func (r *Registry) Clone() *Registry {
	c := &Registry{
		names: make([]string, len(r.names)),
		index: make(map[string]Var, len(r.index)),
	}
	copy(c.names, r.names)
	for k, v := range r.index {
		c.index[k] = v
	}
	return c
}

// Merge returns a registry containing all names of a and b (a's order
// first), along with remapping tables from each input registry into the
// merged one. It is the basis for the algebra operations, which combine
// automata over different variable sets.
func Merge(a, b *Registry) (merged *Registry, fromA, fromB []Var, err error) {
	merged = NewRegistry()
	fromA = make([]Var, a.Len())
	for i, n := range a.names {
		v, err := merged.Add(n)
		if err != nil {
			return nil, nil, nil, err
		}
		fromA[i] = v
	}
	fromB = make([]Var, b.Len())
	for i, n := range b.names {
		v, err := merged.Add(n)
		if err != nil {
			return nil, nil, nil, err
		}
		fromB[i] = v
	}
	return merged, fromA, fromB, nil
}
