package taintflow_test

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
	"spanners/internal/analyzers/taintflow"
)

func TestTaintFlow(t *testing.T) {
	analysistest.Run(t, taintflow.Analyzer, "taintflow")
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

// Alloc sizes a buffer from its argument; callers own the bound.
func Alloc(n int) []byte { return make([]byte, n) }

// Clamp bounds its argument before allocating.
func Clamp(n int) []byte {
	if n > 4096 {
		return nil
	}
	return make([]byte, n)
}
`

const srcB = `package b

import "mod/a"

// Use forwards its argument into mod/a's allocation sink.
func Use(n int) []byte { return a.Alloc(n) }

// Safe forwards to the clamped variant.
func Safe(n int) []byte { return a.Clamp(n) }
`

// TestSummaries checks the exported facts directly: a parameter that
// reaches a sink produces a ParamSinks summary, a clamped one does not,
// and a downstream package importing the facts composes them into its
// own transitive summary.
func TestSummaries(t *testing.T) {
	fset := token.NewFileSet()
	pkgA := typeCheck(t, fset, "mod/a", srcA, nil)
	pkgB := typeCheck(t, fset, "mod/b", srcB, map[string]*types.Package{"mod/a": pkgA.Types})

	facts := analysis.NewFactStore()
	diagsA, err := analysis.RunPackage(pkgA, []*analysis.Analyzer{taintflow.Analyzer}, &analysis.RunConfig{Facts: facts, FactsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(diagsA) != 0 {
		t.Fatalf("package a: unexpected diagnostics %v (parameter taint must summarize, not report)", diagsA)
	}
	var alloc, clamp taintflow.TaintFact
	if !facts.ObjectFact(taintflow.Analyzer, pkgA.Types.Scope().Lookup("Alloc"), &alloc) || !strings.Contains(alloc.ParamSinks[0], "make sized by") {
		t.Fatalf("mod/a facts lack Alloc's ParamSinks summary: %+v", alloc)
	}
	if facts.ObjectFact(taintflow.Analyzer, pkgA.Types.Scope().Lookup("Clamp"), &clamp) && len(clamp.ParamSinks) > 0 {
		t.Fatalf("mod/a facts flag the clamped function: %+v", clamp)
	}
	diags, err := analysis.RunPackage(pkgB, []*analysis.Analyzer{taintflow.Analyzer}, &analysis.RunConfig{Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("package b: unexpected diagnostics %v (no attacker source in scope)", diags)
	}
	var use taintflow.TaintFact
	if !facts.ObjectFact(taintflow.Analyzer, pkgB.Types.Scope().Lookup("Use"), &use) || !strings.Contains(use.ParamSinks[0], "passed to Alloc") {
		t.Fatalf("mod/b facts lack Use's transitive ParamSinks summary: %+v", use)
	}
}
