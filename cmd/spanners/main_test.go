package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spanners/internal/gen"
	"spanners/spanner"
)

func runCLI(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCLIFigure1Text(t *testing.T) {
	f := writeTemp(t, "doc.txt", gen.Figure1Doc())
	out, _, code := runCLI(t, "", gen.Figure1Pattern(), f)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; out:\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	joined := out
	for _, want := range []string{`name=[0,4) "John"`, `email=[6,12) "j@g.be"`, `name=[15,19) "Jane"`, `phone=[21,27) "555-12"`} {
		if !strings.Contains(joined, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIStdinAndCount(t *testing.T) {
	out, _, code := runCLI(t, string(gen.Figure1Doc()), "-count", gen.Figure1Pattern())
	if code != 0 || strings.TrimSpace(out) != "2" {
		t.Fatalf("count via stdin = %q (exit %d), want 2", out, code)
	}
}

func TestCLIJSON(t *testing.T) {
	out, _, code := runCLI(t, string(gen.Figure1Doc()), "-json", gen.Figure1Pattern())
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	dec := json.NewDecoder(strings.NewReader(out))
	matches := 0
	sawEmail := false
	for dec.More() {
		var row struct {
			File  string `json:"file"`
			Spans map[string]struct {
				Start int    `json:"start"`
				End   int    `json:"end"`
				Text  string `json:"text"`
			} `json:"spans"`
		}
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("bad NDJSON: %v\n%s", err, out)
		}
		matches++
		if e, ok := row.Spans["email"]; ok {
			sawEmail = true
			if e.Start != 6 || e.End != 12 || e.Text != "j@g.be" {
				t.Fatalf("email span wrong: %+v", e)
			}
		}
	}
	if matches != 2 || !sawEmail {
		t.Fatalf("matches = %d (email seen %v), want 2 with email", matches, sawEmail)
	}
}

func TestCLIMultiFilePrefixAndLazy(t *testing.T) {
	f1 := writeTemp(t, "a.txt", gen.Figure1Doc())
	f2 := writeTemp(t, "b.txt", []byte("nothing"))
	out, stderr, code := runCLI(t, "", "-lazy", "-stats", "-count", gen.Figure1Pattern(), f1, f2)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, f1+":2") || !strings.Contains(out, f2+":0") {
		t.Fatalf("per-file counts wrong:\n%s", out)
	}
	if !strings.Contains(stderr, "mode:           lazy") || !strings.Contains(stderr, "det states discovered") {
		t.Fatalf("stats output wrong:\n%s", stderr)
	}
}

func TestCLILimitAndNoMatchStatus(t *testing.T) {
	out, _, code := runCLI(t, "abcdef", "-limit", "2", `.*!w{[a-z]}.*`)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 2 {
		t.Fatalf("limit ignored: %d lines", n)
	}

	_, _, code = runCLI(t, "12345", `.*!w{[a-z]}.*`)
	if code != 1 {
		t.Fatalf("no-match exit = %d, want 1", code)
	}
}

func TestCLIErrors(t *testing.T) {
	_, stderr, code := runCLI(t, "", "(")
	if code != 2 || !strings.Contains(stderr, "parse error") {
		t.Fatalf("bad pattern: exit %d, stderr %q", code, stderr)
	}
	_, _, code = runCLI(t, "")
	if code != 2 {
		t.Fatalf("missing pattern: exit %d, want 2", code)
	}
	_, stderr, code = runCLI(t, "", "a", "/nonexistent/file/path")
	if code != 2 || !strings.Contains(stderr, "no such file") {
		t.Fatalf("missing file: exit %d, stderr %q", code, stderr)
	}
}

func TestCLIExitCodes(t *testing.T) {
	// Grep convention: 0 = matched, 1 = no match, 2 = error.
	okFile := writeTemp(t, "ok.txt", gen.Figure1Doc())
	emptyFile := writeTemp(t, "empty.txt", nil)
	cases := []struct {
		name  string
		stdin string
		args  []string
		want  int
	}{
		{"match file", "", []string{gen.Figure1Pattern(), okFile}, 0},
		{"match stdin", string(gen.Figure1Doc()), []string{gen.Figure1Pattern()}, 0},
		{"match count", string(gen.Figure1Doc()), []string{"-count", gen.Figure1Pattern()}, 0},
		{"no match file", "", []string{gen.Figure1Pattern(), emptyFile}, 1},
		{"no match stdin", "12345", []string{`.*!w{[a-z]}.*`}, 1},
		{"no match count", "12345", []string{"-count", `.*!w{[a-z]}.*`}, 1},
		{"no match parallel", "", []string{"-j", "4", `.*!w{[a-z]}.*`, emptyFile, emptyFile, emptyFile}, 1},
		{"match parallel", "", []string{"-j", "4", gen.Figure1Pattern(), emptyFile, okFile}, 0},
		{"bad pattern", "", []string{"("}, 2},
		{"missing pattern", "", nil, 2},
		{"bad flag", "", []string{"-nope", "a"}, 2},
		{"missing file", "", []string{"a", "/nonexistent/file/path"}, 2},
		{"missing file parallel", "", []string{"-j", "2", "a", okFile, "/nonexistent/file/path"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, code := runCLI(t, tc.stdin, tc.args...)
			if code != tc.want {
				t.Fatalf("exit = %d, want %d (stderr: %s)", code, tc.want, stderr)
			}
		})
	}
}

func TestCLIParallelMatchesSerial(t *testing.T) {
	// -j N output must be byte-identical to the serial order, in every
	// output mode.
	var files []string
	for i := 0; i < 9; i++ {
		var doc []byte
		switch i % 3 {
		case 0:
			doc = gen.Contacts(5+i, int64(i))
		case 1:
			doc = nil
		default:
			doc = gen.Contacts(30, int64(i))
		}
		files = append(files, writeTemp(t, fmt.Sprintf("f%d.txt", i), doc))
	}
	for _, extra := range [][]string{nil, {"-json"}, {"-count"}, {"-limit", "2"}, {"-lazy"}} {
		args := append(append([]string{}, extra...), gen.Figure1Pattern())
		serialOut, _, serialCode := runCLI(t, "", append(args, files...)...)
		parArgs := append([]string{"-j", "8"}, args...)
		parOut, _, parCode := runCLI(t, "", append(parArgs, files...)...)
		if parCode != serialCode {
			t.Fatalf("%v: exit %d (parallel) vs %d (serial)", extra, parCode, serialCode)
		}
		if parOut != serialOut {
			t.Fatalf("%v: parallel output differs from serial:\n--- parallel ---\n%s--- serial ---\n%s",
				extra, parOut, serialOut)
		}
	}
}

func TestCLIParallelStdinDash(t *testing.T) {
	// A "-" FILE argument means stdin in batch mode exactly as in serial
	// mode: the first "-" consumes the stream, a repeated "-" sees it
	// drained (an empty document), and the merged output is byte-identical
	// to the serial order.
	f1 := writeTemp(t, "a.txt", gen.Figure1Doc())
	f2 := writeTemp(t, "b.txt", gen.Contacts(10, 7))
	stdin := string(gen.Figure1Doc())
	for _, args := range [][]string{
		{gen.Figure1Pattern(), f1, "-", f2},
		{gen.Figure1Pattern(), "-", f1, "-"},
		{"-count", gen.Figure1Pattern(), f1, "-", f2},
	} {
		serialOut, _, serialCode := runCLI(t, stdin, args...)
		parOut, _, parCode := runCLI(t, stdin, append([]string{"-j", "4"}, args...)...)
		if parCode != serialCode {
			t.Fatalf("%v: exit %d (parallel) vs %d (serial)", args, parCode, serialCode)
		}
		if parOut != serialOut {
			t.Fatalf("%v: parallel output differs from serial:\n--- parallel ---\n%s--- serial ---\n%s",
				args, parOut, serialOut)
		}
		if !strings.Contains(parOut, "-:") {
			t.Fatalf("%v: stdin matches missing the \"-\" prefix:\n%s", args, parOut)
		}
	}
}

func TestCLIStdinStreaming(t *testing.T) {
	// A document much larger than one read chunk must stream through
	// unharmed, and -count over stdin must agree with enumeration.
	doc := gen.Contacts(5000, 23) // ~110 KB, several 64 KB chunks
	out, _, code := runCLI(t, string(doc), "-count", gen.Figure1Pattern())
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	wantCount := strings.TrimSpace(out)

	out, _, code = runCLI(t, string(doc), gen.Figure1Pattern())
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if fmt.Sprint(len(lines)) != wantCount {
		t.Fatalf("streamed enumeration emitted %d lines, -count says %s", len(lines), wantCount)
	}
}

func TestCLIParallelErrorMatchesSerialOrder(t *testing.T) {
	// A read error must surface at its input's position: everything before
	// the bad file prints first, then exit 2 — identically in serial and
	// parallel mode.
	f1 := writeTemp(t, "a.txt", gen.Figure1Doc())
	f2 := writeTemp(t, "b.txt", gen.Figure1Doc())
	bad := filepath.Join(t.TempDir(), "missing.txt")
	args := []string{gen.Figure1Pattern(), f1, f2, bad}

	serialOut, serialErr, serialCode := runCLI(t, "", args...)
	parOut, parErr, parCode := runCLI(t, "", append([]string{"-j", "4"}, args...)...)
	if serialCode != 2 || parCode != 2 {
		t.Fatalf("exit codes %d/%d, want 2/2", serialCode, parCode)
	}
	if parOut != serialOut {
		t.Fatalf("parallel error-path output differs from serial:\n--- parallel ---\n%s--- serial ---\n%s", parOut, serialOut)
	}
	if !strings.Contains(serialOut, "John") || !strings.Contains(parOut, "John") {
		t.Fatal("matches before the failing file must still be printed")
	}
	if !strings.Contains(serialErr, "missing.txt") || !strings.Contains(parErr, "missing.txt") {
		t.Fatalf("stderr must name the failing file:\nserial: %s\nparallel: %s", serialErr, parErr)
	}

	// Same contract for -count.
	countArgs := append([]string{"-count"}, args...)
	serialOut, _, serialCode = runCLI(t, "", countArgs...)
	parOut, _, parCode = runCLI(t, "", append([]string{"-j", "4"}, countArgs...)...)
	if serialCode != 2 || parCode != 2 || parOut != serialOut {
		t.Fatalf("-count error path diverges: exit %d/%d\n--- parallel ---\n%s--- serial ---\n%s",
			serialCode, parCode, parOut, serialOut)
	}
}

func TestCLIAlgebraFlags(t *testing.T) {
	// Composed evaluation through -query: union adds a second pattern's
	// matches, join filters/combines, project restricts the output
	// variables. The table covers each operator alone and the full chain,
	// in both modes.
	doc := "ab <a@b>, ba <12>"
	f := writeTemp(t, "doc.txt", []byte(doc))
	cases := []struct {
		name string
		args []string
		want []string // lines that must appear, in order
		code int
	}{
		{
			name: "union adds matches",
			args: []string{"-query", `union(/.*!user{(a|b)+}@.*/, /.*!num{(1|2)+}.*/)`, f},
			want: []string{`user=[4,5) "a"`, `num=[14,16) "12"`},
			code: 0,
		},
		{
			name: "join as document filter keeps matches",
			args: []string{"-query", `join(/.*!user{(a|b)+}@.*/, /.*@.*/)`, f},
			want: []string{`user=[4,5) "a"`},
			code: 0,
		},
		{
			name: "join filter rejects",
			args: []string{"-query", `join(/.*!user{(a|b)+}@.*/, /(x)*/)`, f},
			want: nil,
			code: 1,
		},
		{
			name: "project narrows variables",
			args: []string{"-query", `project[host](/.*!user{(a|b)+}@!host{(a|b)+}.*/)`, f},
			want: []string{`host=[6,7) "b"`},
			code: 0,
		},
		{
			name: "union join project chain",
			args: []string{
				"-query", `project[num](join(union(/.*!user{(a|b)+}@.*/, /.*!num{(1|2)+}.*/), /.*@.*/))`, f,
			},
			// The user matches survive the join (doc contains @) and project
			// to the empty mapping; the num matches keep their spans.
			want: []string{"{}", `num=[14,16) "12"`},
			code: 0,
		},
		{
			name: "lazy mode composes identically",
			args: []string{"-lazy", "-query", `union(/.*!user{(a|b)+}@.*/, /.*!num{(1|2)+}.*/)`, f},
			want: []string{`user=[4,5) "a"`, `num=[14,16) "12"`},
			code: 0,
		},
		{
			name: "bad union pattern",
			args: []string{"-query", `union(/a/, /(/)`, f},
			code: 2,
		},
		{
			name: "unknown projection variable",
			args: []string{"-query", `project[nope](/.*!user{(a|b)+}@.*/)`, f},
			code: 2,
		},
		{
			name: "projection naming no variables",
			args: []string{"-query", `project[,](/.*!user{(a|b)+}@.*/)`, f},
			code: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, stderr, code := runCLI(t, "", tc.args...)
			if code != tc.code {
				t.Fatalf("exit = %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			pos := 0
			for _, want := range tc.want {
				idx := strings.Index(out[pos:], want)
				if idx < 0 {
					t.Fatalf("output missing %q (in order):\n%s", want, out)
				}
				pos += idx + len(want)
			}
		})
	}
}

func TestCLICountOverflowPrintsExactValue(t *testing.T) {
	// 12 nested variables over 60 bytes push the count far past uint64:
	// Count reports exact == false and the CLI must print the exact
	// big-integer value — identically on the serial file path, the -j batch
	// path, and the streaming stdin path.
	pattern := gen.NestedPattern(12)
	doc := strings.Repeat("a", 60)

	sp, err := spanner.Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if _, exact := sp.Count([]byte(doc)); exact {
		t.Fatal("count no longer overflows uint64; the test is vacuous")
	}
	want := sp.CountBig([]byte(doc)).String()
	if len(want) <= 20 { // 2^64 has 20 digits
		t.Fatalf("expected a >64-bit count, got %s", want)
	}

	f1 := writeTemp(t, "a.txt", []byte(doc))
	f2 := writeTemp(t, "b.txt", []byte(doc))

	out, _, code := runCLI(t, "", "-count", pattern, f1)
	if code != 0 || strings.TrimSpace(out) != want {
		t.Fatalf("serial -count = %q (exit %d), want %s", out, code, want)
	}

	out, _, code = runCLI(t, "", "-j", "2", "-count", pattern, f1, f2)
	if code != 0 {
		t.Fatalf("batch -count exit = %d", code)
	}
	for _, f := range []string{f1, f2} {
		if !strings.Contains(out, f+":"+want) {
			t.Fatalf("batch -count output missing %s:%s\n%s", f, want, out)
		}
	}

	out, _, code = runCLI(t, doc, "-count", pattern)
	if code != 0 || strings.TrimSpace(out) != want {
		t.Fatalf("stdin -count = %q (exit %d), want %s", out, code, want)
	}

	// Overflow followed by total run death: an a-only nested pattern on a
	// document ending in 'b' has exactly zero matches while the uint64 pass
	// reports (0, exact == false). The CLI must print 0 AND exit 1 — the
	// inexact flag alone no longer implies a match.
	var nested strings.Builder
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&nested, "a*!x%d{", i)
	}
	nested.WriteString("a*")
	for i := 1; i <= 12; i++ {
		nested.WriteString("}a*")
	}
	dead := writeTemp(t, "dead.txt", []byte(doc+"b"))
	out, _, code = runCLI(t, "", "-count", nested.String(), dead)
	if strings.TrimSpace(out) != "0" || code != 1 {
		t.Fatalf("overflow-then-death -count = %q (exit %d), want 0 with exit 1", out, code)
	}
	out, _, code = runCLI(t, "", "-j", "2", "-count", nested.String(), dead, dead)
	if code != 1 || strings.Contains(out, ":"+want) {
		t.Fatalf("batch overflow-then-death exit = %d (out %q), want 1", code, out)
	}
}

// TestCLIQueryFlag checks that a -query expression evaluates to exactly
// what the library produces for the same query, and that the error paths
// hold.
func TestCLIQueryFlag(t *testing.T) {
	doc := []byte("ab@ba ba:a")
	f := writeTemp(t, "doc.txt", doc)
	const pEmail = `(a|b|:|@| )*!user{(a|b)+}@(a|b|:|@| )*`
	const pPhone = `(a|b|:|@| )*!user{(a|b)+}:(a|b|:|@| )*`
	query := fmt.Sprintf("project[user](union(/%s/, /%s/))", pEmail, pPhone)

	out, _, code := runCLI(t, "", "-query", query, f)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var want strings.Builder
	for m := range spanner.MustCompileQuery(query).All(doc) {
		for _, b := range m.Bindings() {
			fmt.Fprintf(&want, "%s=%s %q\n", b.Var, b.Span, b.Text)
		}
	}
	if out != want.String() {
		t.Fatalf("-query output differs from the library:\n%q\n%q", out, want.String())
	}
	if !strings.Contains(out, "user=") {
		t.Fatalf("no user bindings:\n%s", out)
	}

	// Parse errors exit 2 with a diagnostic.
	if _, stderr, code := runCLI(t, "", "-query", "union(/a/", f); code != exitError ||
		!strings.Contains(stderr, "parse error") {
		t.Fatalf("parse error: exit %d, stderr %q", code, stderr)
	}
	// Plan-validation errors too.
	if _, stderr, code := runCLI(t, "", "-query", "project[zzz](/a/)", f); code != exitError ||
		!strings.Contains(stderr, "not bound") {
		t.Fatalf("validation error: exit %d, stderr %q", code, stderr)
	}
}

// TestCLIQueryStatsShowsPlans checks the -stats wiring: a query compile
// prints the logical and optimized plan trees.
func TestCLIQueryStatsShowsPlans(t *testing.T) {
	f := writeTemp(t, "doc.txt", []byte("ab"))
	_, stderr, code := runCLI(t, "", "-stats",
		"-query", "project[x](union(/(a|b)*!x{a+}/, union(/!x{b}(a|b)*/, /(a|b)*/)))", f)
	if code > exitNoMatch {
		t.Fatalf("exit = %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"plan (logical):", "plan (optimized):", "union"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("stats missing %q:\n%s", want, stderr)
		}
	}
	// The optimized tree flattens the nested union: it appears once.
	optPart := stderr[strings.Index(stderr, "plan (optimized):"):]
	optPart = optPart[:strings.Index(optPart, "eVA:")]
	if got := strings.Count(optPart, "union"); got != 1 {
		t.Fatalf("optimized plan shows %d union nodes, want 1:\n%s", got, optPart)
	}
	// -no-optimize keeps the plan as written.
	_, stderr, _ = runCLI(t, "", "-stats", "-no-optimize",
		"-query", "union(/a/, union(/b/, /c/))", f)
	optPart = stderr[strings.Index(stderr, "plan (optimized):"):]
	optPart = optPart[:strings.Index(optPart, "eVA:")]
	if got := strings.Count(optPart, "union"); got != 2 {
		t.Fatalf("-no-optimize plan shows %d union nodes, want 2:\n%s", got, optPart)
	}
}

// neverEnding yields 'a' forever: only a timeout can end a pass over it.
type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// TestCLITimeout checks the -timeout flag end to end on the streaming
// stdin path (an endless input only the deadline can stop) and on the
// batch path.
func TestCLITimeout(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-timeout", "100ms", "-count", "a*"}, neverEnding{}, &out, &errb)
	if code != exitError {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitError, errb.String())
	}
	if !strings.Contains(errb.String(), "deadline") {
		t.Fatalf("stderr should mention the deadline: %q", errb.String())
	}

	// A generous timeout lets normal evaluation finish untouched.
	f := writeTemp(t, "doc.txt", gen.Figure1Doc())
	out1, _, code1 := runCLI(t, "", gen.Figure1Pattern(), f)
	out2, _, code2 := runCLI(t, "", "-timeout", "10s", gen.Figure1Pattern(), f)
	if code1 != code2 || out1 != out2 {
		t.Fatalf("timeout changed a finishing run: exit %d/%d", code1, code2)
	}

	// Batch path: many files, tiny timeout.
	files := []string{"-timeout", "1ns", "-j", "4"}
	files = append(files, gen.Figure1Pattern())
	for i := 0; i < 8; i++ {
		files = append(files, writeTemp(t, fmt.Sprintf("f%d.txt", i), gen.Contacts(2000, int64(i))))
	}
	_, errb2, code := runCLI(t, "", files...)
	if code != exitError || !strings.Contains(errb2, "deadline") {
		t.Fatalf("batch timeout: exit %d, stderr %q", code, errb2)
	}
}

// stalledReader blocks forever on Read — only the -timeout deadline can
// end a run over it.
type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { select {} }

// TestCLITimeoutStalledStdin pins that -timeout wins even when stdin's
// Read itself is blocked (a stalled pipe), not just between reads.
func TestCLITimeoutStalledStdin(t *testing.T) {
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run([]string{"-timeout", "100ms", "-count", "a*"}, stalledReader{}, &out, &errb) }()
	select {
	case code := <-done:
		if code != exitError || !strings.Contains(errb.String(), "deadline") {
			t.Fatalf("exit = %d, stderr %q", code, errb.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("-timeout did not interrupt a blocked stdin Read")
	}
}

// TestCLIQueryLiteralEscapes pins the /…/ escape rules: \/ and \\ are
// literal-level, every other backslash sequence (\d, \w, …) passes through
// to the formula unchanged.
func TestCLIQueryLiteralEscapes(t *testing.T) {
	f := writeTemp(t, "doc.txt", []byte("a7b"))
	out, stderr, code := runCLI(t, "", "-query", `/a!x{\d}b/`, f)
	if code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, stderr)
	}
	if !strings.Contains(out, `x=[1,2) "7"`) {
		t.Fatalf("\\d inside a /…/ literal must mean digits:\n%s", out)
	}
}

// TestCLIPlainPatternStatsKeepsVAStage pins that a plain positional
// PATTERN (no -query) still takes the direct pipeline: -stats
// echoes the pattern exactly as typed and reports the VA stage, which
// query lowering (eVA-level composition) necessarily skips.
func TestCLIPlainPatternStatsKeepsVAStage(t *testing.T) {
	f := writeTemp(t, "doc.txt", []byte("ab"))
	_, stderr, code := runCLI(t, "", "-stats", "a!x{b}", f)
	if code > exitNoMatch {
		t.Fatalf("exit = %d:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "pattern:        a!x{b}\n") {
		t.Fatalf("plain pattern not echoed verbatim:\n%s", stderr)
	}
	if !strings.Contains(stderr, "VA:") {
		t.Fatalf("plain pattern lost the VA stats line:\n%s", stderr)
	}
}

// countingWriter counts Write calls; with fail set every call fails.
type countingWriter struct {
	bytes.Buffer
	writes int
	fail   bool
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.fail {
		return 0, errors.New("broken pipe")
	}
	return w.Buffer.Write(p)
}

// TestCLIBufferedOutput pins that output reaches stdout in a few large
// writes rather than one per match, on the serial and the batch path and
// in every output mode, and that a failing stdout still ends the run with
// the write error and exit status 2.
func TestCLIBufferedOutput(t *testing.T) {
	f1 := writeTemp(t, "a.txt", gen.DenseMarkers(1<<10, 1))
	f2 := writeTemp(t, "b.txt", gen.DenseMarkers(1<<10, 2))
	pattern := gen.NestedPattern(2)
	for _, args := range [][]string{
		{"-json", "-limit", "5000", pattern, f1},
		{"-limit", "5000", pattern, f1},
		{"-j", "2", "-json", "-limit", "2500", pattern, f1, f2},
	} {
		var out countingWriter
		var errb bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errb); code != exitMatch {
			t.Fatalf("%q: exit %d, stderr %q", args, code, errb.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 5000 || out.writes > rows/50 {
			t.Fatalf("%q: %d rows in %d writes, want 5000 rows in a few writes", args, rows, out.writes)
		}

		fail := countingWriter{fail: true}
		errb.Reset()
		if code := run(args, strings.NewReader(""), &fail, &errb); code != exitError || errb.String() != "spanners: broken pipe\n" {
			t.Fatalf("%q into a failing stdout: exit %d, stderr %q; want 2 and the write error", args, code, errb.String())
		}
	}
	fail := countingWriter{fail: true}
	var errb bytes.Buffer
	if code := run([]string{"-count", pattern, f1}, strings.NewReader(""), &fail, &errb); code != exitError || errb.String() != "spanners: broken pipe\n" {
		t.Fatalf("-count into a failing stdout: exit %d, stderr %q; want 2 and the write error", code, errb.String())
	}
}

// fmtRow is the text row as the CLI rendered it through Match.Bindings and
// fmt: the reference for the append-based renderer.
func fmtRow(name string, prefix bool, m *spanner.Match) string {
	var parts []string
	for _, b := range m.Bindings() {
		parts = append(parts, fmt.Sprintf("%s=%s %q", b.Var, b.Span, b.Text))
	}
	if len(parts) == 0 {
		parts = append(parts, "{}")
	}
	line := strings.Join(parts, "\t")
	if prefix {
		line = name + ":" + line
	}
	return line + "\n"
}

// TestTextRowMatchesFmt pins the text renderer byte for byte to the fmt
// rendering it replaced, over texts that need quoting: quotes,
// backslashes, tabs, newlines, control and non-printable runes, invalid
// UTF-8 (including cut multi-byte sequences), and the empty mapping.
func TestTextRowMatchesFmt(t *testing.T) {
	docs := []string{
		`say "hi" \ bye`,
		"tab\there\r\nnext\x00\x07\x7f",
		"h\u00e9llo \u2603 \u00a0\u2028\ufeff\U0001F600",
		"bad \xff\xfe\xc3 \xed\xa0\x80 \xef\xbf\xbd",
		"",
	}
	patterns := []string{
		`.*!x{(.|\n)+}.*`,        // every non-empty substring: cuts runes apart
		`!a{(.|\n)*}!b{(.|\n)*}`, // two variables, every split
		`!x{(.|\n)*}b|(.|\n)*`,   // a partial mapping and the empty one
		`(.|\n)*`,                // no variables: the empty mapping only
		`.*!q{"}.*|.*!s{\\}.*|.*!t{\t}.*`,
	}
	for _, pattern := range patterns {
		sp := spanner.MustCompile(pattern)
		rows := 0
		for _, prefix := range []bool{false, true} {
			for _, doc := range docs {
				var out bytes.Buffer
				r := &renderer{prefix: prefix, out: bufio.NewWriter(&out)}
				var want strings.Builder
				sp.Enumerate([]byte(doc), func(m *spanner.Match) bool {
					want.WriteString(fmtRow("in.txt", prefix, m))
					rows++
					return r.match("in.txt", m)
				})
				if err := r.flush(); err != nil {
					t.Fatal(err)
				}
				if out.String() != want.String() {
					t.Fatalf("%s over %q (prefix %v): rows differ\n--- got ---\n%s--- want ---\n%s",
						pattern, doc, prefix, out.String(), want.String())
				}
			}
		}
		if rows == 0 {
			t.Fatalf("%s: no rows; the comparison would be vacuous", pattern)
		}
	}
}

// TestTextRowZeroAlloc pins that a warm text row allocates nothing when
// its texts are short. A text longer than the 32 bytes the compiler's
// stack buffer holds costs its one []byte→string conversion, so that row
// may allocate once per binding and no more.
func TestTextRowZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		pattern, doc string
		maxAllocs    float64
	}{
		{gen.Figure1Pattern(), string(gen.Figure1Doc()), 0},
		{`!x{(.|\n)*}`, strings.Repeat("long \"text\"\twith\xff escapes\n", 20), 1},
	} {
		var m *spanner.Match
		spanner.MustCompile(tc.pattern).Enumerate([]byte(tc.doc), func(mm *spanner.Match) bool { m = mm.Clone(); return false })
		r := &renderer{prefix: true, out: bufio.NewWriterSize(io.Discard, 64<<10)}
		r.match("doc.txt", m) // warm the row buffer
		if allocs := testing.AllocsPerRun(100, func() { r.match("doc.txt", m) }); allocs > tc.maxAllocs {
			t.Fatalf("%s: %v allocations per text row, want at most %v", tc.pattern, allocs, tc.maxAllocs)
		}
	}
}

// TestCLITimeoutLongFile pins -timeout during the enumeration of one FILE:
// a short document with millions of matches must still stop at the
// deadline, not when its enumeration finishes.
func TestCLITimeoutLongFile(t *testing.T) {
	f := writeTemp(t, "a.txt", bytes.Repeat([]byte{'a'}, 4000))
	start := time.Now()
	var out bytes.Buffer
	var errb bytes.Buffer
	code := run([]string{"-timeout", "100ms", `.*!x{a*}.*`, f}, strings.NewReader(""), &out, &errb)
	if code != exitError || !strings.Contains(errb.String(), "deadline") {
		t.Fatalf("exit = %d, stderr %q; want %d and the deadline", code, errb.String(), exitError)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("-timeout 100ms took %v to stop one long enumeration", d)
	}
}
