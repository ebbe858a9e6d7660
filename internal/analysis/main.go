package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Main is the entry point of a multichecker binary. Its arguments are
// package patterns (`spanlint ./...`); every analyzer runs over the
// packages Load returns, test files included, and the exit status is 2
// if any diagnostic is reported or any //spanlint:ignore directive
// suppresses nothing (a stale waiver), 1 on a load or analyzer error,
// and 0 otherwise.
//
// Two flags: -json switches the diagnostic stream to NDJSON on stdout
// for tooling, and -ignores also prints the audit listing of every
// //spanlint:ignore site with its justification.
func Main(analyzers ...*Analyzer) {
	name := filepath.Base(os.Args[0])
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit diagnostics as NDJSON on stdout instead of text on stderr")
	listIgnores := fs.Bool("ignores", false, "also list every //spanlint:ignore site with its justification")
	fs.Parse(os.Args[1:])
	if fs.NArg() == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s [-json] [-ignores] packages...\n", name)
		os.Exit(2)
	}
	os.Exit(check(fs.Args(), analyzers, *asJSON, *listIgnores))
}

// check loads the patterns and plays the packages through one shared
// fact store in dependency order, so every package sees the summaries
// of everything it imports. Each checked package reports its surviving
// diagnostics and, as findings of their own, its stale ignore sites:
// every file belongs to exactly one checked package, so a site's use is
// settled once its package has run.
func check(patterns []string, analyzers []*Analyzer, asJSON, listIgnores bool) int {
	pkgs, err := Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	facts := NewFactStore()
	var sites []IgnoreSite
	exit := 0
	for _, pkg := range pkgs {
		used := make(map[string]bool)
		diags, err := RunPackage(pkg, analyzers, &RunConfig{Facts: facts, FactsOnly: pkg.FactsOnly, UsedIgnores: used})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if pkg.FactsOnly {
			continue // analyzed for summaries only; not a named target
		}
		for _, s := range ignoreSites(pkg, used) {
			sites = append(sites, s)
			if !s.Used {
				diags = append(diags, Diagnostic{Pos: s.Pos, Analyzer: "spanlint",
					Message: "//spanlint:ignore " + s.Analyzers + " suppresses nothing; delete it or re-justify"})
			}
		}
		if len(diags) > 0 {
			printDiags(pkg, diags, asJSON)
			exit = 2
		}
	}
	if listIgnores {
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].File != sites[j].File {
				return sites[i].File < sites[j].File
			}
			return sites[i].Line < sites[j].Line
		})
		PrintIgnores(os.Stdout, sites)
	}
	return exit
}

// printDiags writes the diagnostics: human-readable lines on stderr by
// default, or (with -json) one JSON object per line on stdout — the
// exit status carries the pass/fail either way.
func printDiags(pkg *Package, diags []Diagnostic, asJSON bool) {
	if !asJSON {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		_ = enc.Encode(struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}{pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message})
	}
}
