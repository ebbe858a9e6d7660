package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Export     string
	ForTest    string
	DepOnly    bool
	Standard   bool
}

// Load resolves the patterns with `go list -e -test -export -deps -json`
// and parses and type-checks the module's packages from source, test
// files included, choosing what to check the way go vet does:
//
//   - a package with in-package test files is checked as its test
//     variant `p [p.test]`, which holds every file of p;
//   - an external test package `p_test [p.test]` is checked as well;
//   - the generated `p.test` mains are skipped;
//   - in-module dependencies outside the patterns, recompiled test-only
//     variants, and a plain p whose test variant is checked are loaded
//     FactsOnly, so the fact-producing analyzers can summarize them
//     before their importers run.
//
// The packages come back in dependency order, since `go list -deps`
// emits a package only after everything it imports. Imports are
// resolved through each package's ImportMap to compiler export data,
// exactly like a vet run; the standard library is never parsed. A test
// variant is type-checked under its plain path, the path its objects
// carry when imported, so facts need one key per object.
func Load(patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-test", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %w", patterns, err)
	}

	exports := make(map[string]string) // import path -> export data file
	variants := make(map[string]bool)  // plain paths with a checked test variant
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.Standard || lp.Name == "main" && strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		if p := lp.ForTest; p != "" && lp.ImportPath == p+" ["+p+".test]" && !lp.DepOnly {
			variants[lp.ForTest] = true
		}
		listed = append(listed, lp)
	}

	fset := token.NewFileSet()
	// Packages with the same ImportMap resolve every path alike, so they
	// share one importer and its cache of materialized packages.
	importers := make(map[string]types.Importer)
	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue // nothing buildable (e.g. a directory of ignored files)
		}
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by this loader", lp.ImportPath)
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, lp.Dir+string(os.PathSeparator)+name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
			}
			files = append(files, f)
		}
		key := fmt.Sprint(lp.ImportMap) // fmt prints maps in key order
		imp := importers[key]
		if imp == nil {
			imp = ExportImporter(fset, func(path string) (string, error) {
				if mapped, ok := lp.ImportMap[path]; ok {
					path = mapped
				}
				f, ok := exports[path]
				if !ok {
					return "", fmt.Errorf("no export data listed for %q", path)
				}
				return f, nil
			})
			importers[key] = imp
		}
		path, _, _ := strings.Cut(lp.ImportPath, " [")
		pkg, err := TypeCheck(fset, path, files, imp)
		if err != nil {
			return nil, err
		}
		pkg.FactsOnly = lp.DepOnly || lp.ForTest == "" && variants[lp.ImportPath]
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ExportImporter returns a types importer that reads gc export data,
// resolving each package path to its export file through lookup. One
// importer instance caches every package it materializes, so it should be
// shared across the packages of a load.
func ExportImporter(fset *token.FileSet, lookup func(path string) (string, error)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, err := lookup(path)
		if err != nil {
			return nil, err
		}
		return os.Open(f)
	})
}

// TypeCheck runs the types checker over the parsed files with full info
// recording. Type errors do not abort the check (the partial package is
// still analyzable); they mark the package IllTyped.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, firstErr)
	}
	return &Package{Fset: fset, Files: files, Types: tpkg, Info: info, IllTyped: firstErr != nil}, nil
}
