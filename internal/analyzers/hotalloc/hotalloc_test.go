package hotalloc_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"spanners/internal/analysis"
	"spanners/internal/analysis/analysistest"
	"spanners/internal/analyzers/hotalloc"
)

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, hotalloc.Analyzer, "hotalloc")
}

// typeCheck builds an analysis.Package from source with an importer that
// resolves sibling test packages, so the interprocedural tests can model
// a two-package module without touching the filesystem.
func typeCheck(t *testing.T, fset *token.FileSet, path, src string, deps map[string]*types.Package) *analysis.Package {
	t.Helper()
	f, err := parser.ParseFile(fset, strings.TrimPrefix(path, "mod/")+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.TypeCheck(fset, path, []*ast.File{f}, importerFunc(func(p string) (*types.Package, error) {
		if d, ok := deps[p]; ok {
			return d, nil
		}
		return nil, fmt.Errorf("unknown import %q", p)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.IllTyped {
		t.Fatalf("test package %s is ill-typed", path)
	}
	return pkg
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

const srcA = `package a

// Boom allocates on every call.
func Boom() []int { return make([]int, 8) }

// Calm is allocation-free.
func Calm(xs []int) int { return len(xs) }
`

const srcB = `package b

import "mod/a"

// Hot calls only an allocation-free import.
//
// spanlint:hotpath
func Hot() int { return a.Calm(nil) }

// Bad reaches an allocation through the import.
//
// spanlint:hotpath
func Bad() []int { return a.Boom() }
`

// TestInterprocedural checks that a may-allocate summary exported while
// analyzing one package poisons hot-path call sites in a downstream
// package sharing the fact store, as the driver plays packages in
// dependency order.
func TestInterprocedural(t *testing.T) {
	fset := token.NewFileSet()
	pkgA := typeCheck(t, fset, "mod/a", srcA, nil)
	pkgB := typeCheck(t, fset, "mod/b", srcB, map[string]*types.Package{"mod/a": pkgA.Types})

	facts := analysis.NewFactStore()
	diagsA, err := analysis.RunPackage(pkgA, []*analysis.Analyzer{hotalloc.Analyzer}, &analysis.RunConfig{Facts: facts, FactsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(diagsA) != 0 {
		t.Fatalf("package a: unexpected diagnostics %v", diagsA)
	}
	diags, err := analysis.RunPackage(pkgB, []*analysis.Analyzer{hotalloc.Analyzer}, &analysis.RunConfig{Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("package b: got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "calls mod/a.Boom, which may allocate") ||
		!strings.Contains(d.Message, "calls make, which allocates at a.go:") {
		t.Errorf("diagnostic does not carry the cross-package cause: %q", d.Message)
	}
	if line := fset.Position(d.Pos).Line; line != 13 {
		t.Errorf("diagnostic at line %d, want the a.Boom() call on line 13", line)
	}
}
