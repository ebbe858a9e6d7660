package lockorder_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"spanners/internal/analysis"
	"spanners/internal/analysis/analysistest"
	"spanners/internal/analyzers/lockorder"
)

func TestLockorder(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "lockorder")
}

func TestNoLock(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "nolock")
}

// typeCheck builds an analysis.Package from source. Imports resolve to
// the sibling test packages in deps, and to the standard library
// otherwise.
func typeCheck(t *testing.T, fset *token.FileSet, path, src string, deps map[string]*types.Package) *analysis.Package {
	t.Helper()
	f, err := parser.ParseFile(fset, strings.TrimPrefix(path, "mod/")+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	std := importer.Default()
	pkg, err := analysis.TypeCheck(fset, path, []*ast.File{f}, importerFunc(func(p string) (*types.Package, error) {
		if d, ok := deps[p]; ok {
			return d, nil
		}
		return std.Import(p)
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

import "sync"

type Table struct {
	mu sync.Mutex
	n  int
}

// Size locks.
func (t *Table) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Discovered is lock-free.
func (t *Table) Discovered() int { return t.n }

// Report locks one call deeper.
func Report(t *Table) int { return t.Size() }
`

const srcB = `package b

import "mod/a"

// Stats must stay lock-free.
//
// spanlint:nolock
func Stats(t *a.Table) int {
	return t.Discovered() + t.Size() + a.Report(t) + size(t)
}

// size locks through mod/a.
func size(t *a.Table) int { return t.Size() }
`

// TestNoLockAcrossPackages checks that the AcquiresFact exported while
// analyzing one package makes a spanlint:nolock function in a downstream
// package report every call that reaches a lock, however deep and
// through however many packages, and nothing else.
func TestNoLockAcrossPackages(t *testing.T) {
	fset := token.NewFileSet()
	pkgA := typeCheck(t, fset, "mod/a", srcA, nil)
	pkgB := typeCheck(t, fset, "mod/b", srcB, map[string]*types.Package{"mod/a": pkgA.Types})

	facts := analysis.NewFactStore()
	diagsA, err := analysis.RunPackage(pkgA, []*analysis.Analyzer{lockorder.Analyzer}, &analysis.RunConfig{Facts: facts, FactsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(diagsA) != 0 {
		t.Fatalf("package a: unexpected diagnostics %v", diagsA)
	}
	diags, err := analysis.RunPackage(pkgB, []*analysis.Analyzer{lockorder.Analyzer}, &analysis.RunConfig{Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	want := []string{
		"Stats is marked spanlint:nolock but calls Size, which acquires a mutex; the stats path must stay lock-free",
		"Stats is marked spanlint:nolock but calls Report, which acquires a mutex; the stats path must stay lock-free",
		"Stats is marked spanlint:nolock but calls size, which acquires a mutex; the stats path must stay lock-free",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("package b diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
