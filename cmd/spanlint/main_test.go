package main_test

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"regexp"
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

// TestSmoke exercises the three faces of the binary: the cmd/go vet-tool
// protocol handshakes (-V=full and -flags), and a standalone run over a
// real package of this repo, which must come back clean.
func TestSmoke(t *testing.T) {
	exe := buildSpanlint(t)

	t.Run("version", func(t *testing.T) {
		out, err := exec.Command(exe, "-V=full").Output()
		if err != nil {
			t.Fatalf("-V=full: %v", err)
		}
		// cmd/go parses `<name> version <fingerprint>` and caches on the
		// fingerprint, so it must change when the binary does.
		if !regexp.MustCompile(`^spanlint version [0-9a-f]+\n$`).Match(out) {
			t.Fatalf("-V=full output %q does not match the vet protocol shape", out)
		}
	})

	t.Run("flags", func(t *testing.T) {
		out, err := exec.Command(exe, "-flags").Output()
		if err != nil {
			t.Fatalf("-flags: %v", err)
		}
		var flags []struct {
			Name  string
			Bool  bool
			Usage string
		}
		if err := json.Unmarshal(out, &flags); err != nil {
			t.Fatalf("-flags output is not the JSON cmd/go expects: %v\n%s", err, out)
		}
		// Exactly one enable flag per registered analyzer. Driver-side
		// flags (-V, -flags, -json, -ignores) must stay out of the
		// handshake so cmd/go never forwards them on vet runs.
		var names []string
		for _, f := range flags {
			names = append(names, f.Name)
		}
		slices.Sort(names)
		want := []string{"ctxloop", "hotalloc", "lockorder", "taintflow"}
		if !slices.Equal(names, want) {
			t.Errorf("-flags advertises %q, want exactly %q", names, want)
		}
	})

	t.Run("json", func(t *testing.T) {
		cmd := exec.Command(exe, "-json", "./testdata/src/jsondemo")
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("expected exit status 2 on findings, got %v\nstderr: %s", err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != 1 {
			t.Fatalf("expected exactly one NDJSON diagnostic, got %d:\n%s", len(lines), stdout.String())
		}
		var d struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
			t.Fatalf("diagnostic line is not valid JSON: %v\n%s", err, lines[0])
		}
		if d.Analyzer != "lockorder" || !strings.Contains(d.Message, "not unlocked on this path") {
			t.Errorf("unexpected diagnostic: %+v", d)
		}
		if !strings.HasSuffix(d.File, "jsondemo.go") || d.Line == 0 || d.Column == 0 {
			t.Errorf("diagnostic position not populated: %+v", d)
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
