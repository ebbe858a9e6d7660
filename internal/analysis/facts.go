// The fact layer: per-object findings that flow across the import
// graph, the mechanism that turns the intra-procedural analyzers of this
// framework into modular interprocedural ones. An analyzer attaches a
// fact (a function summary, an annotation record) to a package-level
// object while analyzing the object's own package; when a downstream
// package is analyzed later, the analyzer imports the fact at the call
// site instead of re-deriving (or conservatively guessing) the callee's
// behavior. This mirrors x/tools' analysis.Fact.
//
// Load returns packages in import order with in-module dependencies of
// the named patterns marked FactsOnly, and the driver plays them through
// one in-memory FactStore, so summaries exist even for packages outside
// the requested set. Facts are kept as Go values: they never leave the
// process.
package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is an observation about a package-level object, exported by an
// analyzer in the object's package and importable wherever the object is
// referenced. The AFact method only marks the type, which must be a
// pointer to a struct.
type Fact interface{ AFact() }

// factKey addresses one fact: which analyzer produced it, which package
// owns the object, and the object's stable in-package key.
type factKey struct {
	analyzer string
	pkg      string
	obj      string
}

// FactStore holds the facts of every package seen so far in one run.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{m: make(map[factKey]Fact)} }

// ObjectKey returns the stable key of a package-level object within its
// package: "Name" for functions, variables and types, "Recv.Name" for
// methods (pointer receivers dereferenced), and "Iface.Name" for
// interface methods. The key is what lets a fact exported while analyzing
// the defining package be found again from a mere import reference: an
// object type-checked from source and the same object read from export
// data are different values with the same key.
func ObjectKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	return recvTypeName(sig.Recv().Type()) + "." + fn.Name()
}

// recvTypeName names a receiver type: the named type's bare name, through
// one level of pointer.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "interface"
	default:
		return t.String()
	}
}

func keyOf(a *Analyzer, obj types.Object) factKey {
	return factKey{a.Name, obj.Pkg().Path(), ObjectKey(obj)}
}

// ObjectFact copies a's fact about obj into the pointer fact, reporting
// whether one was exported when obj's package was analyzed. The copy is
// shallow: maps and slices inside a fact are shared, and importers must
// not modify them.
func (s *FactStore) ObjectFact(a *Analyzer, obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	stored, ok := s.m[keyOf(a, obj)]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// ExportObjectFact attaches fact to obj, which must be a package-level
// object of the package under analysis. The fact becomes visible to the
// same analyzer in every downstream package.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Facts may only be exported for the package under analysis; an
	// analyzer asking to annotate an imported object is a bug.
	if obj.Pkg().Path() != p.Pkg.Path() {
		panic(fmt.Sprintf("analysis: %s exports a fact for %s, owned by %s, while analyzing %s",
			p.Analyzer.Name, ObjectKey(obj), obj.Pkg().Path(), p.Pkg.Path()))
	}
	p.facts.m[keyOf(p.Analyzer, obj)] = fact
}

// ImportObjectFact loads this analyzer's fact about obj — typically an
// object of an imported package — into the pointer fact, reporting
// whether one was exported when obj's package was analyzed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.ObjectFact(p.Analyzer, obj, fact)
}

// UsesFacts reports whether a produces or consumes facts — the analyzers
// a facts-only dependency run must execute.
func UsesFacts(a *Analyzer) bool { return len(a.FactTypes) > 0 }

// factTypesValid verifies every declared fact type is a struct pointer,
// which ObjectFact copies through; called from RunPackage so misdeclared
// fact types fail loudly in tests, not in CI.
func factTypesValid(a *Analyzer) error {
	for _, f := range a.FactTypes {
		t := reflect.TypeOf(f)
		if t == nil || t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
			return fmt.Errorf("analyzer %s declares fact type %v, want a pointer to a struct", a.Name, t)
		}
	}
	return nil
}
