// The fact layer: serializable per-object findings that flow across the
// import graph, the mechanism that turns the intra-procedural analyzers
// of this framework into modular interprocedural ones. An analyzer
// attaches a fact (a function summary, an annotation record) to a
// package-level object while analyzing the object's own package; when a
// downstream package is analyzed later, the analyzer imports the fact at
// the call site instead of re-deriving (or conservatively guessing) the
// callee's behavior. This mirrors x/tools' analysis.Fact in the two
// execution modes this framework supports:
//
//   - standalone (`spanlint ./...`): packages are analyzed in import
//     order with one shared in-memory FactStore; in-module dependencies
//     of the named patterns are loaded facts-only so summaries exist even
//     for packages outside the requested set;
//   - vet tool (`go vet -vettool=spanlint`): cmd/go schedules dependency
//     packages first as fact-only (VetxOnly) runs, and the facts travel
//     through the .vetx files the vet protocol already ships around —
//     EncodeFacts writes this package's facts to VetxOutput, and the
//     PackageVetx map names the dependency files to decode.
//
// Facts are JSON, not gob: the payloads are small summary structs, and a
// debuggable `cat foo.vetx` has proven its worth. A fact type must
// therefore round-trip through encoding/json.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"strings"
)

// canonPkgPath strips the " [pkg.test]" variant suffix cmd/go appends to
// the import path of test-recompiled packages, so a fact exported while
// checking the test variant is found by the plain path the type system
// reports for the same objects (and vice versa).
func canonPkgPath(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		return p[:i]
	}
	return p
}

// A Fact is a serializable observation about a package-level object,
// exported by an analyzer in the object's package and importable wherever
// the object is referenced. The AFact method only marks the type.
type Fact interface{ AFact() }

// factKey addresses one fact: which analyzer produced it, which package
// owns the object, and the object's stable in-package key.
type factKey struct {
	analyzer string
	pkg      string
	obj      string
}

// FactStore holds the facts of every package seen so far in one run,
// serialized uniformly as JSON so the in-process and cross-process (vetx)
// paths cannot drift apart.
type FactStore struct {
	m map[factKey]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore { return &FactStore{m: make(map[factKey]json.RawMessage)} }

// ObjectKey returns the stable key of a package-level object within its
// package: "Name" for functions, variables and types, "Recv.Name" for
// methods (pointer receivers dereferenced), and "Iface.Name" for
// interface methods. The key is what lets a fact exported while analyzing
// the defining package be found again from a mere import reference.
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

// exportFact records fact for (analyzer, pkg, obj), overwriting any
// previous fact of that analyzer on that object.
func (s *FactStore) exportFact(analyzer, pkg, obj string, fact Fact) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("marshaling %s fact for %s.%s: %w", analyzer, pkg, obj, err)
	}
	s.m[factKey{analyzer, canonPkgPath(pkg), obj}] = data
	return nil
}

// importFact loads the fact of analyzer on (pkg, obj) into the pointer
// fact, reporting whether one existed.
func (s *FactStore) importFact(analyzer, pkg, obj string, fact Fact) bool {
	data, ok := s.m[factKey{analyzer, canonPkgPath(pkg), obj}]
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}

// EncodeFacts serializes every fact owned by pkgPath — the payload a vet
// run writes to its VetxOutput file. The format is a JSON object
// {analyzer: {objectKey: fact}}, deterministic and greppable.
func (s *FactStore) EncodeFacts(pkgPath string) ([]byte, error) {
	pkgPath = canonPkgPath(pkgPath)
	byAnalyzer := make(map[string]map[string]json.RawMessage)
	for k, v := range s.m {
		if k.pkg != pkgPath {
			continue
		}
		inner := byAnalyzer[k.analyzer]
		if inner == nil {
			inner = make(map[string]json.RawMessage)
			byAnalyzer[k.analyzer] = inner
		}
		inner[k.obj] = v
	}
	return json.Marshal(byAnalyzer)
}

// DecodeFacts merges a package's serialized facts (an EncodeFacts payload
// read from a dependency's vetx file) into the store under pkgPath. Empty
// and legacy empty-file payloads decode to nothing, so pre-fact vetx
// files remain acceptable.
func (s *FactStore) DecodeFacts(pkgPath string, data []byte) error {
	pkgPath = canonPkgPath(pkgPath)
	if len(data) == 0 {
		return nil
	}
	var byAnalyzer map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &byAnalyzer); err != nil {
		return fmt.Errorf("decoding facts of %s: %w", pkgPath, err)
	}
	for analyzer, inner := range byAnalyzer {
		for obj, v := range inner {
			s.m[factKey{analyzer, pkgPath, obj}] = v
		}
	}
	return nil
}

// ExportObjectFact attaches fact to obj, which must be a package-level
// object of the package under analysis. The fact becomes visible to the
// same analyzer in every downstream package.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return
	}
	// Facts may only be exported for the package under analysis; an
	// analyzer asking to annotate an imported object is a bug.
	if canonPkgPath(obj.Pkg().Path()) != canonPkgPath(p.Pkg.Path()) {
		panic(fmt.Sprintf("analysis: %s exports a fact for %s, owned by %s, while analyzing %s",
			p.Analyzer.Name, ObjectKey(obj), obj.Pkg().Path(), p.Pkg.Path()))
	}
	if err := p.facts.exportFact(p.Analyzer.Name, obj.Pkg().Path(), ObjectKey(obj), fact); err != nil {
		panic(err)
	}
}

// ImportObjectFact loads this analyzer's fact about obj — typically an
// object of an imported package — into the pointer fact, reporting
// whether one was exported when obj's package was analyzed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.facts.importFact(p.Analyzer.Name, obj.Pkg().Path(), ObjectKey(obj), fact)
}

// UsesFacts reports whether a produces or consumes facts — the analyzers
// a fact-only (VetxOnly) dependency run must execute.
func UsesFacts(a *Analyzer) bool { return len(a.FactTypes) > 0 }

// factTypesValid verifies every declared fact type is a JSON-encodable
// struct pointer or struct; called once per analyzer at registration in
// Run so misdeclared fact types fail loudly in tests, not in CI.
func factTypesValid(a *Analyzer) error {
	for _, f := range a.FactTypes {
		t := reflect.TypeOf(f)
		if t == nil {
			return fmt.Errorf("analyzer %s declares a nil fact type", a.Name)
		}
	}
	return nil
}
