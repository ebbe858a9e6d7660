package spanner_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// collectKeys materializes the canonical keys of all matches of doc.
func collectKeys(s *spanner.Spanner, doc []byte) []string {
	var out []string
	s.Enumerate(doc, func(m *spanner.Match) bool {
		out = append(out, m.Key())
		return true
	})
	sort.Strings(out)
	return out
}

func TestCompileErrors(t *testing.T) {
	if _, err := spanner.Compile("("); err == nil {
		t.Fatal("parse error must surface")
	}
	if _, err := spanner.Compile("!x{a"); err == nil {
		t.Fatal("unclosed capture must surface")
	}
}

func TestFigure1EndToEnd(t *testing.T) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	doc := gen.Figure1Doc()

	var got []map[string]string
	s.Enumerate(doc, func(m *spanner.Match) bool {
		row := make(map[string]string)
		for _, b := range m.Bindings() {
			row[b.Var] = b.Text
		}
		got = append(got, row)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("got %d matches, want 2: %v", len(got), got)
	}
	found := map[string]bool{}
	for _, row := range got {
		if e, ok := row["email"]; ok {
			found["email:"+row["name"]+"/"+e] = true
		}
		if p, ok := row["phone"]; ok {
			found["phone:"+row["name"]+"/"+p] = true
		}
	}
	if !found["email:John/j@g.be"] || !found["phone:Jane/555-12"] {
		t.Fatalf("unexpected matches: %v", got)
	}

	if c, exact := s.Count(doc); !exact || c != 2 {
		t.Fatalf("Count = %d (exact=%v), want 2", c, exact)
	}
	if s.IsEmpty(doc) {
		t.Fatal("IsEmpty must be false on a matching document")
	}
	if !s.IsEmpty([]byte("no pattern here")) {
		t.Fatal("IsEmpty must be true on a non-matching document")
	}
	if big := s.CountBig(doc); big.Int64() != 2 {
		t.Fatalf("CountBig = %v, want 2", big)
	}
}

func TestMatchAccessors(t *testing.T) {
	s := spanner.MustCompile(`.*!w{[a-z]+}.*`)
	doc := []byte("xy")
	it := s.Iterator(doc)
	seen := map[string]bool{}
	for {
		m, ok := it.Next()
		if !ok {
			break
		}
		sp, ok := m.Span("w")
		if !ok {
			t.Fatal("w must be assigned")
		}
		text, _ := m.Text("w")
		if text != string(doc[sp.Start:sp.End]) {
			t.Fatalf("Text %q disagrees with Span %v", text, sp)
		}
		if sp.Len() != sp.End-sp.Start {
			t.Fatal("Len mismatch")
		}
		if _, ok := m.Span("nope"); ok {
			t.Fatal("unknown variable must not resolve")
		}
		if _, ok := m.Text("nope"); ok {
			t.Fatal("unknown variable must not resolve")
		}
		seen[text] = true
	}
	for _, want := range []string{"x", "y", "xy"} {
		if !seen[want] {
			t.Fatalf("missing capture %q in %v", want, seen)
		}
	}
}

// TestMatchSpanAt pins SpanAt(i) to Span(Vars()[i]) on matches that leave
// some variables unassigned.
func TestMatchSpanAt(t *testing.T) {
	s := spanner.MustCompile(`.*!z{a+}!a{b}.*|.*!m{c}.*`)
	n := 0
	s.Enumerate([]byte("aabcab"), func(m *spanner.Match) bool {
		n++
		for i, name := range m.Vars() {
			got, gotOK := m.SpanAt(i)
			want, wantOK := m.Span(name)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: SpanAt(%d) = %v, %v; Span(%q) = %v, %v", m, i, got, gotOK, name, want, wantOK)
			}
		}
		return true
	})
	if n < 3 {
		t.Fatalf("only %d matches; want both union branches", n)
	}
}

func TestMatchScratchReuseAndClone(t *testing.T) {
	s := spanner.MustCompile(`.*!w{[a-z]}.*`)
	it := s.Iterator([]byte("ab"))
	m1, ok := it.Next()
	if !ok {
		t.Fatal("expected a match")
	}
	c1 := m1.Clone()
	k1 := m1.Key()
	m2, ok := it.Next()
	if !ok {
		t.Fatal("expected a second match")
	}
	if m1 != m2 {
		t.Fatal("iterator should reuse its scratch match")
	}
	if c1.Key() != k1 {
		t.Fatal("clone must freeze the earlier value")
	}
	if m2.Key() == k1 {
		t.Fatal("second match must differ")
	}
}

func TestAllRangeIterator(t *testing.T) {
	s := spanner.MustCompile(`.*!w{[a-z]}.*`)
	n := 0
	for m := range s.All([]byte("abc")) {
		if m.Key() == "" {
			t.Fatal("empty key")
		}
		n++
	}
	if n != 3 {
		t.Fatalf("ranged over %d matches, want 3", n)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	s := spanner.MustCompile(`.*!w{[a-z]}.*`)
	n := 0
	s.Enumerate([]byte("abcdef"), func(*spanner.Match) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("enumerated %d, want early stop at 2", n)
	}
}

func TestNonSequentialPatternSequentializes(t *testing.T) {
	// A capture under a star compiles to a non-sequential VA; the facade
	// must route it through the Proposition 4.1 product transparently.
	s := spanner.MustCompile(`(!x{a})*b`)
	if !s.Stats().Sequentialized {
		t.Fatal("capture under star must require sequentialization")
	}
	keys := collectKeys(s, []byte("ab"))
	if len(keys) != 1 || keys[0] != "x=[0,1)" {
		t.Fatalf("keys = %v, want [x=[0,1)]", keys)
	}
}

func TestStatsShape(t *testing.T) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	st := s.Stats()
	if st.Mode != spanner.ModeStrict {
		t.Fatal("default mode must be strict")
	}
	if st.DetStates <= 0 || st.DenseTableBytes <= 0 || st.DenseTableBytes >= st.DetStates*1024 {
		t.Fatalf("stats inconsistent (table must be byte-class compressed): %+v", st)
	}
	if st.ByteClasses < 2 || st.ByteClasses > 256 {
		t.Fatalf("ByteClasses = %d out of range", st.ByteClasses)
	}
	if !st.PrefilterEnabled {
		t.Fatalf("Figure 1 pattern must accelerate: %+v", st)
	}
	if st.VAStates <= 0 || st.EVAStates <= 0 {
		t.Fatalf("intermediate sizes missing: %+v", st)
	}
	if got := s.Vars(); len(got) != 3 {
		t.Fatalf("Vars = %v, want 3 names", got)
	}
	if s.Pattern() != gen.Figure1Pattern() || s.String() != s.Pattern() {
		t.Fatal("pattern accessors disagree")
	}
	if spanner.ModeStrict.String() != "strict" || spanner.ModeLazy.String() != "lazy" {
		t.Fatal("Mode.String mismatch")
	}

	l := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithLazy())
	before := l.Stats().DetStates
	l.Enumerate(gen.Figure1Doc(), func(*spanner.Match) bool { return true })
	if after := l.Stats().DetStates; after <= before {
		t.Fatalf("lazy DetStates must grow with evaluation: %d -> %d", before, after)
	}
	if l.Stats().DenseTableBytes != 0 {
		t.Fatal("lazy mode has no dense table")
	}
}

// TestLazyCompileStats pins what a lazy spanner reports right after
// compile: compiling mints only the initial subset state {q0}, of the 28
// that contacts documents need, and skip decisions mint none, so the
// count after a document is the same with the prefilter on and off. The
// class count is that of the sequential eVA the memo rows are indexed by
// (and the cache's cost estimate charges); for Figure 1 it equals the
// strict det-level count.
func TestLazyCompileStats(t *testing.T) {
	for _, c := range []struct {
		opt   spanner.Option
		after int // DetStates after one contacts document
	}{
		{spanner.WithLazy(), 28},
		{spanner.WithoutPrefilter(), 28},
	} {
		l := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithLazy(), c.opt)
		st := l.Stats()
		if st.DetStates != 1 || st.ByteClasses != 10 {
			t.Fatalf("after compile: DetStates = %d, ByteClasses = %d, want 1 and 10", st.DetStates, st.ByteClasses)
		}
		l.Enumerate(gen.Contacts(100, 5), func(*spanner.Match) bool { return true })
		if got := l.Stats().DetStates; got != c.after {
			t.Fatalf("after a contacts document: DetStates = %d, want %d", got, c.after)
		}
	}
	if s := spanner.MustCompile(gen.Figure1Pattern()); s.Stats().ByteClasses != 10 {
		t.Fatalf("strict ByteClasses = %d, want 10", s.Stats().ByteClasses)
	}
}

func TestGoroutineSafety(t *testing.T) {
	for _, mode := range []spanner.Option{spanner.WithStrict(), spanner.WithLazy()} {
		s := spanner.MustCompile(gen.Figure1Pattern(), mode)
		docs := [][]byte{
			gen.Figure1Doc(),
			gen.Contacts(50, 1),
			gen.Contacts(50, 2),
			[]byte("nothing to see"),
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				doc := docs[g%len(docs)]
				want, _ := s.Count(doc)
				for rep := 0; rep < 5; rep++ {
					n := uint64(0)
					s.Enumerate(doc, func(*spanner.Match) bool { n++; return true })
					if n != want {
						t.Errorf("goroutine %d: enumerated %d, count says %d", g, n, want)
						return
					}
					// Counting reuses pooled scratch across goroutines too.
					if c, _ := s.Count(doc); c != want {
						t.Errorf("goroutine %d: recount %d, first count %d", g, c, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestIsEmptyOverflowThenDeath pins IsEmpty on a document whose counting
// overflows and then dies: 12 nested variables over 60 a's push the
// intermediate counts past uint64, then a trailing 'b' kills every run.
// The counting pass migrates to big integers at the overflow, so Count
// reports the exact (0, true) and IsEmpty answers true.
func TestIsEmptyOverflowThenDeath(t *testing.T) {
	// a*!x1{a*…!x12{a*}…a*}: nested captures over an a-only alphabet, so a
	// trailing 'b' is fatal after the counts have already overflowed.
	var p strings.Builder
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&p, "a*!x%d{", i)
	}
	p.WriteString("a*")
	for i := 1; i <= 12; i++ {
		p.WriteString("}a*")
	}
	s := spanner.MustCompile(p.String())
	prefix := bytes.Repeat([]byte("a"), 60)
	if _, exact := s.Count(prefix); exact {
		t.Fatal("the a^60 prefix counts exactly: the construction no longer overflows")
	}
	doc := append(prefix, 'b')
	if n, exact := s.Count(doc); !exact || n != 0 {
		t.Fatalf("Count = (%d, %v), want (0, true)", n, exact)
	}
	if !s.IsEmpty(doc) {
		t.Fatal("IsEmpty = false on a document with zero matches")
	}
	if s.IsEmpty(prefix) {
		t.Fatal("IsEmpty = true on a matching document with overflowing counts")
	}
}

func TestWithModeOption(t *testing.T) {
	s := spanner.MustCompile("a", spanner.WithMode(spanner.ModeLazy))
	if s.Mode() != spanner.ModeLazy {
		t.Fatal("WithMode(ModeLazy) ignored")
	}
}
