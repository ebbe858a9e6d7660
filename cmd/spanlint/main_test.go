package main_test

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// buildSpanlint compiles the multichecker once per test binary.
func buildSpanlint(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "spanlint")
	cmd := exec.Command("go", "build", "-o", exe, "spanners/cmd/spanlint")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building spanlint: %v\n%s", err, out)
	}
	return exe
}

// diagnostic is one NDJSON line of `spanlint -json`.
type diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// runJSON runs spanlint -json over the packages, expecting exit status 2
// (findings), and returns the decoded diagnostics.
func runJSON(t *testing.T, exe string, pkgs ...string) []diagnostic {
	t.Helper()
	cmd := exec.Command(exe, append([]string{"-json"}, pkgs...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("expected exit status 2 on findings, got %v\nstderr: %s", err, stderr.String())
	}
	var diags []diagnostic
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var d diagnostic
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("diagnostic line is not valid JSON: %v\n%s", err, line)
		}
		diags = append(diags, d)
	}
	return diags
}

// TestSmoke runs the binary end to end: the NDJSON stream over a fixture
// with one finding per registered analyzer, findings in test files, the
// ignore listing, and a clean run over a real package of this repo.
func TestSmoke(t *testing.T) {
	exe := buildSpanlint(t)

	t.Run("json", func(t *testing.T) {
		diags := runJSON(t, exe, "./testdata/src/everyanalyzer")
		// One finding per registered analyzer, so an analyzer dropped
		// from cmd/spanlint, or one added without a fixture case, fails.
		var names []string
		for _, d := range diags {
			names = append(names, d.Analyzer)
			if !strings.HasSuffix(d.File, "everyanalyzer.go") || d.Line == 0 || d.Column == 0 {
				t.Errorf("diagnostic position not populated: %+v", d)
			}
			if d.Analyzer == "lockorder" && !strings.Contains(d.Message, "not unlocked on this path") {
				t.Errorf("unexpected lockorder diagnostic: %+v", d)
			}
		}
		slices.Sort(names)
		want := []string{"ctxloop", "hotalloc", "lockorder", "taintflow"}
		if !slices.Equal(names, want) {
			t.Errorf("analyzers reported %q, want exactly one finding from each of %q", names, want)
		}
	})

	t.Run("testfiles", func(t *testing.T) {
		// One lock leaks in a plain file, which the package and its test
		// variant both hold; one in an in-package _test.go file, which
		// only the test variant holds; one in the external test package,
		// which reaches the in-package test's type through the ImportMap.
		diags := runJSON(t, exe, "./testdata/src/testfiles")
		var files []string
		for _, d := range diags {
			if d.Analyzer != "lockorder" || !strings.Contains(d.Message, "not unlocked on this path") {
				t.Errorf("unexpected diagnostic: %+v", d)
			}
			files = append(files, filepath.Base(d.File))
		}
		slices.Sort(files)
		if want := []string{"external_test.go", "internal_test.go", "testfiles.go"}; !slices.Equal(files, want) {
			t.Errorf("findings in %q, want each of %q exactly once", files, want)
		}
	})

	t.Run("stale", func(t *testing.T) {
		diags := runJSON(t, exe, "./testdata/src/stale")
		if len(diags) != 1 || diags[0].Analyzer != "spanlint" || !strings.Contains(diags[0].Message, "suppresses nothing") || diags[0].Line != 6 {
			t.Errorf("want one stale-waiver finding at stale.go:6, got %+v", diags)
		}
	})

	t.Run("ignores", func(t *testing.T) {
		out, err := exec.Command(exe, "-ignores", "spanners/cluster").Output()
		if err != nil {
			t.Fatalf("-ignores: %v", err)
		}
		s := string(out)
		if !strings.Contains(s, "ctxloop") || !strings.Contains(s, "bounded accounting over the in-memory shard map") {
			t.Errorf("-ignores audit is missing the cluster suppression site:\n%s", s)
		}
	})

	t.Run("standalone", func(t *testing.T) {
		cmd := exec.Command(exe, "spanners/corpus")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("standalone run over spanners/corpus failed: %v\n%s", err, stderr.String())
		}
		if s := strings.TrimSpace(stderr.String()); s != "" {
			t.Errorf("expected a clean run, got diagnostics:\n%s", s)
		}
	})
}
