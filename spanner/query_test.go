package spanner_test

// Tests for the lazy query-expression API: builder and parser round-trips,
// the Explain plans, the optimizer rewrites (observed through Explain and
// through Stats), and the acceptance criteria of the query-plan redesign —
// a 4-deep nested-union query compiles to one n-ary sum automaton with
// strictly fewer eVA states than the chained-binary construction, and the
// projection-pushdown rewrite is visible in Explain.

import (
	"slices"
	"strings"
	"testing"

	"spanners/spanner"
)

// compileQ compiles q, failing the test on error.
func compileQ(t *testing.T, q *spanner.Query, opts ...spanner.Option) *spanner.Spanner {
	t.Helper()
	s, err := q.Compile(opts...)
	if err != nil {
		t.Fatalf("compile %s: %v", q, err)
	}
	return s
}

func TestQueryStringCanonical(t *testing.T) {
	cases := []struct {
		q    *spanner.Query
		want string
	}{
		{spanner.Pattern(`a*!x{b}`), `/a*!x{b}/`},
		{spanner.Pattern(`a/b`), `/a\/b/`},
		{spanner.Pattern(`\d+`), `/\\d+/`},
		{
			spanner.Pattern(`a`).Union(spanner.Pattern(`b`), spanner.Pattern(`c`)),
			`union(/a/, /b/, /c/)`,
		},
		{
			spanner.Pattern(`!x{a}`).Join(spanner.Pattern(`!y{b}`)).Project("x", "y", "x"),
			`project[x,y](join(/!x{a}/, /!y{b}/))`,
		},
		{spanner.Pattern(`ab`).Project(), `project[](/ab/)`},
	}
	for _, tc := range cases {
		if got := tc.q.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		// The canonical form is a fixed point of the parser.
		back, err := spanner.ParseQuery(tc.want)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.want, err)
		}
		if got := back.String(); got != tc.want {
			t.Errorf("ParseQuery(%q).String() = %q", tc.want, got)
		}
	}
}

func TestParseQueryAcceptsWhitespaceAndNormalizes(t *testing.T) {
	q, err := spanner.ParseQuery(" union( /a/ ,\n\tproject[ x , y ]( /!x{a}!y{b}/ ) ) ")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.String(), `union(/a/, project[x,y](/!x{a}!y{b}/))`; got != want {
		t.Fatalf("normalized form = %q, want %q", got, want)
	}
}

// TestParseQueryLiteralEscapes pins the /…/ escape rules: \/ and \\ are
// the literal-level escapes; any other backslash sequence passes through
// to the formula unchanged, so the natural /\d+/ spelling means digits and
// normalizes to the canonical doubled form.
func TestParseQueryLiteralEscapes(t *testing.T) {
	q, err := spanner.ParseQuery(`/!x{\d+}\/\w/`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.String(), `/!x{\\d+}\/\\w/`; got != want {
		t.Fatalf("normalized literal = %q, want %q", got, want)
	}
	s, err := q.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	s.Enumerate([]byte("42/a"), func(m *spanner.Match) bool {
		txt, _ := m.Text("x")
		texts = append(texts, txt)
		return true
	})
	if len(texts) != 1 || texts[0] != "42" {
		t.Fatalf("\\d must mean digits through the literal: %v", texts)
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, src := range []string{
		``,                              // empty
		`/ab`,                           // unclosed literal
		`/a\`,                           // trailing backslash
		`frobnicate(/a/)`,               // unknown combinator
		`union(/a/`,                     // missing )
		`union(/a/, )`,                  // missing operand
		`project[x(/!x{a}/)`,            // missing ]
		`project[x]/!x{a}/`,             // missing (
		`project[x,](/!x{a}/) trailing`, // junk after expression
		`/a/ /b/`,                       // two expressions
	} {
		if _, err := spanner.ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) succeeded, want error", src)
		}
	}
}

// TestQueryPatternRoundTrip pins the satellite fix: Pattern() of a compiled
// query is the canonical syntax, which re-parses and re-compiles into an
// equivalent spanner — including patterns containing slashes and
// backslashes, which the /…/ literal escaping must survive.
func TestQueryPatternRoundTrip(t *testing.T) {
	queries := []*spanner.Query{
		spanner.Pattern(`(a|b)*!x{a+}(a|b)*`).Union(spanner.Pattern(`(a|b)*!y{b+}(a|b)*`)),
		spanner.Pattern(`(a|/)*!x{a+}(a|/)*`).Union(spanner.Pattern(`(a|/)*!y{\/+}(a|/)*`)),
		spanner.Pattern(`!x{\d+}[a-z/]*`).Project("x"),
		spanner.Pattern(`(a|b)*!x{a+}(a|b)*`).
			Join(spanner.Pattern(`(a|b)*!y{b+}(a|b)*`)).
			Project("x", "y"),
	}
	docs := [][]byte{nil, []byte("ab"), []byte("a/b"), []byte("ba7/"), []byte("aabba")}
	for _, q := range queries {
		s := compileQ(t, q)
		back, err := spanner.ParseQuery(s.Pattern())
		if err != nil {
			t.Fatalf("Pattern() %q does not re-parse: %v", s.Pattern(), err)
		}
		s2 := compileQ(t, back)
		if s2.Pattern() != s.Pattern() {
			t.Fatalf("round-tripped Pattern %q != %q", s2.Pattern(), s.Pattern())
		}
		if !slices.Equal(s.Vars(), s2.Vars()) {
			t.Fatalf("round-tripped Vars %v != %v", s2.Vars(), s.Vars())
		}
		for _, doc := range docs {
			if a, b := keys1Based(t, s, doc), keys1Based(t, s2, doc); !slices.Equal(a, b) {
				t.Fatalf("round trip of %s diverges on %q:\n%v\n%v", q, doc, a, b)
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	if _, err := spanner.Pattern(`a(`).Compile(); err == nil {
		t.Error("bad leaf pattern must fail Compile")
	}
	if _, err := spanner.Pattern(`a`).Project("x").Compile(); err == nil {
		t.Error("projecting an unbound variable must fail")
	}
	if _, err := spanner.Pattern(`!x{a}`).Union(spanner.Pattern(`b`)).Project("x", "nope").Compile(); err == nil {
		t.Error("projecting a variable bound nowhere in the union must fail")
	}
	// Projection validates against the whole subtree: x is bound in only
	// one union operand, which is enough.
	if _, err := spanner.Pattern(`!x{a}`).Union(spanner.Pattern(`b`)).Project("x").Compile(); err != nil {
		t.Errorf("projecting a variable bound in one operand: %v", err)
	}
	vars, err := spanner.Pattern(`!x{a}`).Join(spanner.Pattern(`!y{b}!x{a}`)).Vars()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(vars, []string{"x", "y"}) {
		t.Fatalf("Vars = %v, want [x y]", vars)
	}
}

// TestNestedUnionAcceptance is the acceptance-criteria test: a 4-deep
// nested-union query compiles to a single n-ary sum automaton. The strict
// state reduction comes from the optimizer's subexpression deduplication:
// after the final trim, an n-ary sum of distinct operands has exactly the
// states of the (also finally-trimmed) chained binary construction — the
// intermediate fresh initials are unreachable and trimmed either way — but
// a repeated operand is embedded once instead of twice, so the optimized
// automaton is strictly smaller. (What n-ary lowering alone buys is
// compile-time: one fresh state and one embedding pass per operand instead
// of re-embedding the accumulated sum at every fold step.)
func TestNestedUnionAcceptance(t *testing.T) {
	p1 := `(a|b)*!x{a+}(a|b)*`
	p2 := `(a|b)*!y{b+}(a|b)*`
	p3 := `(a|b)*!x{ab+}(a|b)*`
	// ((p1 ∪ p2) ∪ p3) ∪ p1 — four levels of nesting, one repeated operand.
	q := spanner.Pattern(p1).
		Union(spanner.Pattern(p2)).
		Union(spanner.Pattern(p3)).
		Union(spanner.Pattern(p1))

	opt := compileQ(t, q)
	unopt := compileQ(t, q, spanner.WithoutOptimization())
	if o, u := opt.Stats().EVAStates, unopt.Stats().EVAStates; o >= u {
		t.Fatalf("optimized n-ary union has %d eVA states, chained binary %d; want strictly fewer", o, u)
	}

	// The optimized plan is one n-ary union of the three distinct operands.
	ex, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(ex.Logical, "union"); got != 3 {
		t.Fatalf("logical plan has %d union nodes, want 3:\n%s", got, ex.Logical)
	}
	if got := strings.Count(ex.Optimized, "union"); got != 1 {
		t.Fatalf("optimized plan has %d union nodes, want 1 (n-ary):\n%s", got, ex.Optimized)
	}
	if got := strings.Count(ex.Optimized, "/(a|b)*"); got != 3 {
		t.Fatalf("optimized plan has %d leaves, want 3 (deduplicated):\n%s", got, ex.Optimized)
	}

	// Both compiles denote the same spanner.
	for _, doc := range [][]byte{nil, []byte("a"), []byte("abab"), []byte("bbaab")} {
		if a, b := keys1Based(t, opt, doc), keys1Based(t, unopt, doc); !slices.Equal(a, b) {
			t.Fatalf("optimized and unoptimized diverge on %q:\n%v\n%v", doc, a, b)
		}
	}
}

// TestExplainProjectionPushdown pins the acceptance criterion that
// q.Explain() shows the projection-pushdown rewrite: a projection above a
// join moves below it, and the join side binding none of the projected
// variables degrades to a boolean filter (project[]).
func TestExplainProjectionPushdown(t *testing.T) {
	q := spanner.Pattern(`(a|b)*!x{a+}(a|b)*`).
		Join(spanner.Pattern(`(a|b)*!y{b+}(a|b)*`)).
		Project("x")
	ex, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ex.Logical, "project[x]") {
		t.Fatalf("logical plan root should be project[x]:\n%s", ex.Logical)
	}
	if !strings.HasPrefix(ex.Optimized, "join") {
		t.Fatalf("optimized plan root should be the join (projection pushed down):\n%s", ex.Optimized)
	}
	if !strings.Contains(ex.Optimized, "project[]") {
		t.Fatalf("optimized plan should show the y side reduced to a boolean filter:\n%s", ex.Optimized)
	}

	// And the rewrite is semantics preserving.
	opt := compileQ(t, q)
	unopt := compileQ(t, q, spanner.WithoutOptimization())
	if got := opt.Vars(); !slices.Equal(got, []string{"x"}) {
		t.Fatalf("Vars = %v, want [x]", got)
	}
	for _, doc := range [][]byte{nil, []byte("ab"), []byte("ba"), []byte("aabba")} {
		if a, b := keys1Based(t, opt, doc), keys1Based(t, unopt, doc); !slices.Equal(a, b) {
			t.Fatalf("pushdown changed semantics on %q:\n%v\n%v", doc, a, b)
		}
	}
}

// TestProjectionPushdownThroughUnion checks the union half of the pushdown
// rewrite: the projection distributes into the operands and restricts each
// to the variables it actually binds.
func TestProjectionPushdownThroughUnion(t *testing.T) {
	q := spanner.Pattern(`(a|b)*!x{a+}!z{b+}(a|b)*`).
		Union(spanner.Pattern(`(a|b)*!y{b+}(a|b)*`)).
		Project("x")
	ex, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ex.Optimized, "union") {
		t.Fatalf("optimized root should be the union:\n%s", ex.Optimized)
	}
	if !strings.Contains(ex.Optimized, "project[x]") || !strings.Contains(ex.Optimized, "project[]") {
		t.Fatalf("optimized plan should push project[x] into the x side and project[] into the y side:\n%s", ex.Optimized)
	}
	opt := compileQ(t, q)
	unopt := compileQ(t, q, spanner.WithoutOptimization())
	for _, doc := range [][]byte{nil, []byte("ab"), []byte("abba"), []byte("bab")} {
		if a, b := keys1Based(t, opt, doc), keys1Based(t, unopt, doc); !slices.Equal(a, b) {
			t.Fatalf("union pushdown changed semantics on %q:\n%v\n%v", doc, a, b)
		}
	}
}

// TestJoinOrderingByEstimate checks that the optimizer reorders join
// operands smallest-estimated-first (visible in Explain) without changing
// the match set.
func TestJoinOrderingByEstimate(t *testing.T) {
	big := `(a|b)*!x{a+}(a|b)*!z{b+a+b+a+}(a|b)*(ab|ba)*`
	small := `b*a*`
	q := spanner.Pattern(big).Join(spanner.Pattern(small))
	ex, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	smallIdx := strings.Index(ex.Optimized, "/b*a*/")
	bigIdx := strings.Index(ex.Optimized, "/(a|b)*!x{a+}")
	if smallIdx < 0 || bigIdx < 0 || smallIdx > bigIdx {
		t.Fatalf("optimized join should list the smaller operand first:\n%s", ex.Optimized)
	}
	opt := compileQ(t, q)
	unopt := compileQ(t, q, spanner.WithoutOptimization())
	for _, doc := range [][]byte{nil, []byte("ba"), []byte("abab"), []byte("bbaabba")} {
		if a, b := keys1Based(t, opt, doc), keys1Based(t, unopt, doc); !slices.Equal(a, b) {
			t.Fatalf("join reordering changed semantics on %q", doc)
		}
	}
}

// TestQueryStatsPlan checks the plan a query compile lowers: Explain
// flattens the nested union into one n-ary union, and the compiled
// spanner's Stats report the query's canonical syntax.
func TestQueryStatsPlan(t *testing.T) {
	q := spanner.Pattern(`a`).Union(spanner.Pattern(`b`).Union(spanner.Pattern(`c`)))
	ex, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(ex.Logical, "union") != 2 {
		t.Fatalf("logical plan should keep both unions:\n%s", ex.Logical)
	}
	if strings.Count(ex.Optimized, "union") != 1 {
		t.Fatalf("optimized plan should be one n-ary union:\n%s", ex.Optimized)
	}
	if st := compileQ(t, q).Stats(); st.Pattern != q.String() {
		t.Fatalf("Stats.Pattern = %q, want %q", st.Pattern, q.String())
	}
}

// TestQueryDedupSharedSubexpression checks that a subexpression appearing
// under several operators is compiled once and the plans stay equivalent —
// here the same pattern occurs as a union operand and inside a join.
func TestQueryDedupSharedSubexpression(t *testing.T) {
	shared := spanner.Pattern(`(a|b)*!x{a+}(a|b)*`)
	q := shared.Join(spanner.Pattern(`(a|b)*b(a|b)*`)).Union(shared)
	opt := compileQ(t, q)
	unopt := compileQ(t, q, spanner.WithoutOptimization())
	for _, doc := range [][]byte{nil, []byte("a"), []byte("ab"), []byte("aabab")} {
		if a, b := keys1Based(t, opt, doc), keys1Based(t, unopt, doc); !slices.Equal(a, b) {
			t.Fatalf("shared-subexpression plans diverge on %q:\n%v\n%v", doc, a, b)
		}
	}
}

// TestQueryUnionFlattensAndDedups checks that a union repeating one of
// its operands one level up denotes the same spanner as the union without
// the repeat: the optimizer flattens the nesting and drops the duplicate
// leaf, while Pattern() keeps the query as written and still round-trips.
func TestQueryUnionFlattensAndDedups(t *testing.T) {
	q1 := spanner.Pattern(`(a|b)*!x{a+}(a|b)*`)
	u := compileQ(t, q1.Union(spanner.Pattern(`(a|b)*!y{b+}(a|b)*`)))
	q2 := spanner.MustParseQuery(u.Pattern()).Union(q1) // repeated operand
	u2 := compileQ(t, q2)
	for _, doc := range [][]byte{nil, []byte("ab"), []byte("bba")} {
		if a, b := keys1Based(t, u, doc), keys1Based(t, u2, doc); !slices.Equal(a, b) {
			t.Fatalf("union(u, q1) should equal u on %q: %v vs %v", doc, a, b)
		}
	}
	want := "union(union(/(a|b)*!x{a+}(a|b)*/, /(a|b)*!y{b+}(a|b)*/), /(a|b)*!x{a+}(a|b)*/)"
	if got := u2.Pattern(); got != want {
		t.Fatalf("Pattern = %q, want %q", got, want)
	}
	if back := spanner.MustParseQuery(want).String(); back != want {
		t.Fatalf("Pattern does not round-trip: %q", back)
	}
	ex, err := q2.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(ex.Optimized, "/") != 2*2 {
		t.Fatalf("optimized plan should hold 2 deduplicated leaves:\n%s", ex.Optimized)
	}
}
