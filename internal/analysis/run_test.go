package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// checkPackage type-checks a single in-memory file with no imports.
func checkPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := TypeCheck(fset, "p", []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// reportCalls flags every function declaration; the tests then steer
// suppression comments at the reports.
var reportCalls = &Analyzer{
	Name: "reportcalls",
	Doc:  "test analyzer: flags every function declaration",
	Run: func(pass *Pass) (any, error) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "func %s", fd.Name.Name)
				}
			}
		}
		return nil, nil
	},
}

func TestSuppression(t *testing.T) {
	pkg := checkPackage(t, `package p

func a() {}

//spanlint:ignore reportcalls justified: exercising same-name suppression
func b() {}

//spanlint:ignore otherlint justification aimed at a different analyzer
func c() {}

//spanlint:ignore reportcalls,otherlint a comma list covers both names
func d() {}

//spanlint:ignore reportcalls
func e() {}
`)
	diags, err := Run(pkg, []*Analyzer{reportCalls})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Message)
	}
	// b is suppressed by name, d by the comma list; c's ignore names a
	// different analyzer; e's ignore has no justification, so it does not
	// parse and the diagnostic stands.
	want := []string{"func a", "func c", "func e"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("diagnostics = %v, want %v", got, want)
	}
	for _, d := range diags {
		if d.Analyzer != "reportcalls" {
			t.Errorf("diagnostic carries analyzer %q, want reportcalls", d.Analyzer)
		}
	}
}

func TestSuppressSameLine(t *testing.T) {
	pkg := checkPackage(t, `package p

func a() {} //spanlint:ignore reportcalls same-line suppression
`)
	diags, err := Run(pkg, []*Analyzer{reportCalls})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("expected the same-line ignore to suppress, got %v", diags)
	}
}

func TestUsedIgnores(t *testing.T) {
	pkg := checkPackage(t, `package p

//spanlint:ignore reportcalls live: suppresses the func a diagnostic
func a() {}

var x = 1 //spanlint:ignore reportcalls stale: vars are never flagged
`)
	used := make(map[string]bool)
	diags, err := RunPackage(pkg, []*Analyzer{reportCalls}, &RunConfig{UsedIgnores: used})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("expected the ignore to suppress func a, got %v", diags)
	}
	if !used["a.go:3"] {
		t.Errorf("the suppressing site a.go:3 was not recorded as used: %v", used)
	}
	if used["a.go:6"] {
		t.Errorf("the no-op site a.go:6 was recorded as used: %v", used)
	}
}

func TestPrintIgnoresStale(t *testing.T) {
	sites := []IgnoreSite{
		{File: "a.go", Line: 3, Analyzers: "reportcalls", Justification: "live", Used: true},
		{File: "a.go", Line: 7, Analyzers: "reportcalls", Justification: "rotted", Used: false},
	}
	var buf strings.Builder
	PrintIgnores(&buf, sites)
	out := buf.String()
	if n := strings.Count(out, "STALE"); n != 1 {
		t.Errorf("PrintIgnores marked %d sites stale, want 1:\n%s", n, out)
	}
	if strings.Contains(strings.SplitN(out, "\n", 2)[0], "STALE") {
		t.Errorf("the live site is marked stale:\n%s", out)
	}
	if !strings.Contains(out, "a.go:7: reportcalls: rotted [STALE") {
		t.Errorf("the stale site is not marked:\n%s", out)
	}
}

func TestRequiresOrder(t *testing.T) {
	var order []string
	base := &Analyzer{
		Name: "base",
		Doc:  "records that it ran first",
		Run: func(pass *Pass) (any, error) {
			order = append(order, "base")
			return 42, nil
		},
	}
	dep := &Analyzer{
		Name:     "dep",
		Doc:      "consumes base's result",
		Requires: []*Analyzer{base},
		Run: func(pass *Pass) (any, error) {
			order = append(order, "dep")
			if got := pass.ResultOf[base]; got != 42 {
				t.Errorf("ResultOf[base] = %v, want 42", got)
			}
			return nil, nil
		},
	}
	pkg := checkPackage(t, `package p`)
	if _, err := Run(pkg, []*Analyzer{dep}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "base,dep" {
		t.Errorf("execution order = %v, want base before dep", order)
	}
}
