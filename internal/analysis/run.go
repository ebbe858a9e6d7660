package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// IllTyped records that type checking reported errors; analyzers
	// still run (the syntax and partial type information are usable) but
	// their reports on such a package are best-effort.
	IllTyped bool
	// FactsOnly marks a package loaded solely so the fact-producing
	// analyzers can summarize it (an in-module dependency, a recompiled
	// test-only variant, or a package whose test variant is checked in
	// its place); its diagnostics are not reported.
	FactsOnly bool
}

// A RunConfig adjusts one package's analysis run. The zero value (and a
// nil pointer) is the plain single-package run Run performs.
type RunConfig struct {
	// Facts is the fact store shared across the packages of a
	// multi-package run; analyzers exchange function summaries through
	// it. Nil gives the package a private store, so fact-using analyzers
	// still work (package-locally) in fixtures and unit tests.
	Facts *FactStore
	// FactsOnly restricts the run to analyzers that produce or consume
	// facts (plus their Requires): the mode dependency packages are
	// analyzed in, purely to populate the store. Diagnostics of a
	// facts-only run are discarded by the callers.
	FactsOnly bool
	// UsedIgnores, when non-nil, collects the "file:line" of every
	// //spanlint:ignore comment that suppressed at least one diagnostic
	// in this run — the signal the stale-suppression audit inverts.
	UsedIgnores map[string]bool
}

// Run executes the analyzers (and, first, their transitive Requires) over
// the package and returns the surviving diagnostics in file/line order,
// with site-level //spanlint:ignore suppressions already applied.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunPackage(pkg, analyzers, nil)
}

// RunPackage is Run with an explicit configuration: a cross-package fact
// store, the facts-only dependency mode, and used-ignore tracking.
func RunPackage(pkg *Package, analyzers []*Analyzer, cfg *RunConfig) ([]Diagnostic, error) {
	if cfg == nil {
		cfg = &RunConfig{}
	}
	facts := cfg.Facts
	if facts == nil {
		facts = NewFactStore()
	}
	var diags []Diagnostic
	results := make(map[*Analyzer]any)
	ran := make(map[*Analyzer]bool)

	var exec func(a *Analyzer) error
	exec = func(a *Analyzer) error {
		if ran[a] {
			return nil
		}
		ran[a] = true // pre-mark: a Requires cycle is a programming error, not a hang
		if err := factTypesValid(a); err != nil {
			return err
		}
		for _, req := range a.Requires {
			if err := exec(req); err != nil {
				return err
			}
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			ResultOf:  results,
			facts:     facts,
			report: func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			},
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Types.Path(), err)
		}
		results[a] = res
		return nil
	}
	for _, a := range analyzers {
		if cfg.FactsOnly && !UsesFacts(a) {
			continue
		}
		if err := exec(a); err != nil {
			return nil, err
		}
	}

	diags = suppress(pkg, diags, cfg.UsedIgnores)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// ignoreRE matches a suppression comment: the analyzer names (comma list)
// and a mandatory justification.
var ignoreRE = regexp.MustCompile(`spanlint:ignore\s+([A-Za-z_][A-Za-z0-9_,]*)\s+(\S.*)`)

// parseIgnore recognizes a //spanlint:ignore directive. Like Go's own
// //go: directives it must start the comment — `//spanlint:ignore`
// with no space — so prose that merely mentions the directive (doc
// comments, examples) neither suppresses nor shows up in the audit.
func parseIgnore(text string) (names, justification string, ok bool) {
	if !strings.HasPrefix(text, "//spanlint:ignore") {
		return "", "", false
	}
	m := ignoreRE.FindStringSubmatch(text)
	if m == nil {
		return "", "", false
	}
	return m[1], strings.TrimSpace(m[2]), true
}

// An ignoreEntry is one analyzer name granted by a suppression comment,
// remembering the comment's own site so usage can be credited back to it.
type ignoreEntry struct {
	name string
	site string // "file:line" of the comment itself
}

// suppress drops diagnostics whose site carries a matching
// //spanlint:ignore comment on the same line or the line directly above.
// When used is non-nil, the site of every comment that suppressed at
// least one diagnostic is recorded in it (the stale-ignore audit signal).
func suppress(pkg *Package, diags []Diagnostic, used map[string]bool) []Diagnostic {
	// ignores[file][line] = suppression entries in effect at that line.
	ignores := make(map[string]map[int][]ignoreEntry)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				nameList, _, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := ignores[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]ignoreEntry)
					ignores[pos.Filename] = byLine
				}
				site := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, name := range strings.Split(nameList, ",") {
					e := ignoreEntry{name: name, site: site}
					// The comment shields its own line and the next: a
					// comment above a statement names the statement below it.
					byLine[pos.Line] = append(byLine[pos.Line], e)
					byLine[pos.Line+1] = append(byLine[pos.Line+1], e)
				}
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		suppressed := false
		for _, e := range ignores[pos.Filename][pos.Line] {
			if e.name == d.Analyzer {
				suppressed = true
				if used != nil {
					used[e.site] = true
				}
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// WalkStack traverses every file of the pass in depth-first order,
// calling fn with each node and the stack of its ancestors (outermost
// first, not including n itself). Returning false skips n's children.
// It is the parent-aware complement of ast.Inspect that several
// analyzers need to classify how an expression is used.
func WalkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if !descend {
				// ast.Inspect will not send the matching nil, so do not push.
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}
