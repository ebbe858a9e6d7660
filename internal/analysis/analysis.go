// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis framework: the Analyzer/Pass/Diagnostic
// vocabulary, a package loader driven by `go list -test -export`, the
// multichecker driver, and an analysistest-style fixture runner. The
// repo's build environment is hermetic (no module proxy), so rather than
// depend on x/tools the subset this module actually needs is
// reimplemented here against the standard library; analyzer code written
// for this package ports to x/tools by changing one import path.
//
// Deliberate omissions versus x/tools: no SSA and no suggested fixes.
// Object facts (facts.go) are supported: an analyzer declaring FactTypes
// may export per-object summaries that flow across the import graph,
// which is what makes the hotalloc, taintflow and lockorder family
// interprocedural.
//
// Diagnostics can be suppressed at the site with a comment on the same
// line or the line above:
//
//	//spanlint:ignore ctxloop bounded per-shard accounting loop
//
// The analyzer name (a comma list is accepted) and a non-empty
// justification are both required; a bare ignore suppresses nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check. Its Run function inspects a single
// type-checked package and reports diagnostics through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //spanlint:ignore
	// comments. It must be a valid Go identifier.
	Name string
	// Doc is the help text: one summary line, then detail.
	Doc string
	// Requires lists analyzers whose results this one consumes via
	// Pass.ResultOf. Requirements run first on the same package.
	Requires []*Analyzer
	// Run executes the check. The returned value is exposed to dependent
	// analyzers as Pass.ResultOf[this]; analyzers without dependents
	// return nil.
	Run func(*Pass) (any, error)
	// FactTypes declares the fact types this analyzer exports or imports
	// (one zero value per type). A non-empty list opts the analyzer into
	// fact-only dependency runs: it executes on every package of the
	// import graph, not just the checked targets.
	FactTypes []Fact
}

func (a *Analyzer) String() string { return a.Name }

// A Pass is one (analyzer, package) execution: the syntax and type
// information of the package under analysis plus the Report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ResultOf holds the results of the analyzers named in Requires.
	ResultOf map[*Analyzer]any

	report func(Diagnostic)
	facts  *FactStore
}

// Report emits one diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Callee resolves a call expression to the function or method it
// invokes, when that is statically known: a named function or a method
// selected on a value or type, through any parentheses around the
// callee and any explicit instantiation of it (f[T](…) resolves to the
// generic f). Calls of function values, builtins and conversions yield
// nil.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := p.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Analyzer is filled in by the runner; Run functions leave it empty.
	Analyzer string
}
