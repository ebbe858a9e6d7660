package spanner_test

// Differential tests for the spanner algebra, composed through the Query
// API. The ground truth is the set-theoretic composition of brute-force
// oracle results: each operand is evaluated by internal/oracle's
// exhaustive marker-placement enumeration on its own deterministic
// automaton, the mapping sets are composed with the model-level
// UnionSets/ProjectSet/JoinSets, and the compiled query must reproduce the
// set exactly — on >1000 random (pattern pair, document) cases, in both
// determinization modes, and through the streaming and batch entry points.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spanners/internal/gen"
	"spanners/internal/model"
	"spanners/internal/oracle"
	"spanners/spanner"
)

// oracleSet computes ⟦pattern⟧doc with the brute-force oracle over the
// pattern's own deterministic automaton (1-based mappings).
func oracleSet(t *testing.T, pattern string, doc []byte) *model.MappingSet {
	t.Helper()
	det, err := spanner.Pipeline(pattern)
	if err != nil {
		t.Fatalf("pipeline %q: %v", pattern, err)
	}
	return oracle.Enumerate(det, doc)
}

// keys1Based enumerates s on doc and returns sorted canonical keys shifted
// to the 1-based position convention of model.Mapping.
func keys1Based(t *testing.T, s *spanner.Spanner, doc []byte) []string {
	t.Helper()
	var out []string
	s.Enumerate(doc, func(m *spanner.Match) bool {
		out = append(out, shiftKeyTo1Based(t, m.Key()))
		return true
	})
	sort.Strings(out)
	return out
}

// assertSet checks that s's matches on doc are exactly the mapping set
// want, and that Count agrees with the enumeration.
func assertSet(t *testing.T, label string, s *spanner.Spanner, doc []byte, want *model.MappingSet) {
	t.Helper()
	got := keys1Based(t, s, doc)
	if !slices.Equal(got, want.Keys()) {
		t.Fatalf("%s on %q (%s mode):\ngot  %v\nwant %v", label, doc, s.Mode(), got, want.Keys())
	}
	if n, exact := s.Count(doc); !exact || n != uint64(want.Len()) {
		t.Fatalf("%s on %q: Count = (%d, %v), enumeration has %d", label, doc, n, exact, want.Len())
	}
}

// knownVars filters names to those bound in q.
func knownVars(t *testing.T, q *spanner.Query, names []string) []string {
	t.Helper()
	vars, err := q.Vars()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		if slices.Contains(vars, n) {
			out = append(out, n)
		}
	}
	return out
}

// TestAlgebraDifferentialRandom is the acceptance-criteria harness: ≥1000
// random (pattern pair, document) cases, each validating the union, join
// and projection queries against the oracle composition. Strict mode is checked on every
// case; lazy mode on a regular subsample (the two modes share the
// composed automaton, differing only in determinization).
func TestAlgebraDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	docs := [][]byte{nil, []byte("a"), []byte("ab"), []byte("bab")}
	cases := 0
	for pair := 0; pair < 270; pair++ {
		n1 := gen.RandomRGX(rng, 3, []string{"x", "y"}, "ab")
		n2 := gen.RandomRGX(rng, 3, []string{"y", "z"}, "ab")
		p1, p2 := n1.String(), n2.String()
		q1, q2 := spanner.Pattern(p1), spanner.Pattern(p2)
		keep := knownVars(t, q1, []string{"y", "x"})
		qu, qj, qp := q1.Union(q2), q1.Join(q2), q1.Project(keep...)
		union, join, proj := compileQ(t, qu), compileQ(t, qj), compileQ(t, qp)
		var lazyUnion, lazyJoin, lazyProj *spanner.Spanner
		if pair%5 == 0 {
			lazyUnion = compileQ(t, qu, spanner.WithLazy())
			lazyJoin = compileQ(t, qj, spanner.WithLazy())
			lazyProj = compileQ(t, qp, spanner.WithLazy())
		}
		det1 := spannerRegistry(t, p1)
		det2 := spannerRegistry(t, p2)
		for _, doc := range docs {
			cases++
			o1, o2 := oracleSet(t, p1, doc), oracleSet(t, p2, doc)

			wantU := model.UnionSets(o1, o2)
			assertSet(t, fmt.Sprintf("union(%s, %s)", p1, p2), union, doc, wantU)

			wantJ, err := model.JoinSets(o1, o2, det1, det2)
			if err != nil {
				t.Fatal(err)
			}
			assertSet(t, fmt.Sprintf("join(%s, %s)", p1, p2), join, doc, wantJ)

			wantP, err := model.ProjectSet(o1, keep, model.NewRegistryOf(keep...))
			if err != nil {
				t.Fatal(err)
			}
			assertSet(t, fmt.Sprintf("project%v(%s)", keep, p1), proj, doc, wantP)

			if lazyUnion != nil {
				assertSet(t, "lazy union", lazyUnion, doc, wantU)
				assertSet(t, "lazy join", lazyJoin, doc, wantJ)
				assertSet(t, "lazy project", lazyProj, doc, wantP)
			}
		}
	}
	if cases < 1000 {
		t.Fatalf("only %d differential cases ran; the acceptance floor is 1000", cases)
	}
}

// spannerRegistry returns the variable registry of a pattern's compiled
// automaton, for binding oracle join results.
func spannerRegistry(t *testing.T, pattern string) *model.Registry {
	t.Helper()
	det, err := spanner.Pipeline(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return det.Registry()
}

// TestAlgebraLaws asserts the algebraic identities on random inputs in
// both determinization modes: union is commutative, projection onto all
// variables is the identity, and a join over disjoint variable sets is the
// cross product of the two match sets — present exactly on documents both
// operands match (intersection-of-documents semantics).
func TestAlgebraLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(771))
	docs := [][]byte{nil, []byte("a"), []byte("ba"), []byte("abba"), []byte("babab")}
	for _, mode := range []spanner.Option{spanner.WithStrict(), spanner.WithLazy()} {
		for i := 0; i < 60; i++ {
			n1 := gen.RandomRGX(rng, 3, []string{"x"}, "ab")
			n2 := gen.RandomRGX(rng, 3, []string{"y"}, "ab")
			s1 := spanner.MustCompile(n1.String(), mode)
			s2 := spanner.MustCompile(n2.String(), mode)
			q1, q2 := spanner.Pattern(n1.String()), spanner.Pattern(n2.String())

			u12 := compileQ(t, q1.Union(q2), mode)
			u21 := compileQ(t, q2.Union(q1), mode)
			idp := compileQ(t, q1.Project(s1.Vars()...), mode)
			j := compileQ(t, q1.Join(q2), mode)
			for _, doc := range docs {
				if a, b := keys1Based(t, u12, doc), keys1Based(t, u21, doc); !slices.Equal(a, b) {
					t.Fatalf("union not commutative on %q:\n%s ∪ %s: %v\n%s ∪ %s: %v",
						doc, n1, n2, a, n2, n1, b)
				}
				if a, b := keys1Based(t, idp, doc), keys1Based(t, s1, doc); !slices.Equal(a, b) {
					t.Fatalf("π_all(%s) is not the identity on %q:\ngot  %v\nwant %v", n1, doc, a, b)
				}
				// Disjoint variable sets: the join is the cross product, so
				// it is empty exactly when either operand rejects the
				// document (intersection-of-documents semantics).
				joined := keys1Based(t, j, doc)
				wantJoin := len(keys1Based(t, s1, doc)) * len(keys1Based(t, s2, doc))
				if len(joined) != wantJoin {
					t.Fatalf("disjoint join |%s ⋈ %s| = %d on %q, want |s1|·|s2| = %d",
						n1, n2, len(joined), doc, wantJoin)
				}
			}
		}
	}
}

// TestJoinAsDocumentFilter pins the boolean use of natural join: joining
// with a variable-free query keeps s1's matches exactly on documents the
// filter accepts and drops everything else.
func TestJoinAsDocumentFilter(t *testing.T) {
	const p1, pFilter = `(a|b)*!w{a+}(a|b)*`, `(a|b)*ba(a|b)*` // documents containing "ba"
	s1 := spanner.MustCompile(p1)
	filter := spanner.MustCompile(pFilter)
	j := compileQ(t, spanner.Pattern(p1).Join(spanner.Pattern(pFilter)))
	for _, doc := range [][]byte{nil, []byte("aa"), []byte("ba"), []byte("aaba"), []byte("bbbb"), []byte("abab")} {
		want := keys1Based(t, s1, doc)
		if filter.IsEmpty(doc) {
			want = nil
		}
		if got := keys1Based(t, j, doc); !slices.Equal(got, want) {
			t.Fatalf("filter join on %q: got %v, want %v", doc, got, want)
		}
	}
}

// TestAlgebraComposesNested checks that composed queries compose again:
// π_user(join(union(emails, phones), filter)) — the shape of a real
// extraction pipeline — still matches the oracle composition.
func TestAlgebraComposesNested(t *testing.T) {
	const pEmail = `(a|b| )*!user{(a|b)+}@!host{(a|b)+}(a|b| )*`
	const pPhone = `(a|b| )*!user{(a|b)+}:!num{(a|b)+}(a|b| )*`
	const pFilter = `(a|b|@|:| )*b(a|b|@|:| )*` // documents containing a "b"
	u := spanner.Pattern(pEmail).Union(spanner.Pattern(pPhone))
	final := compileQ(t, u.Join(spanner.Pattern(pFilter)).Project("user"))
	if got := final.Vars(); len(got) != 1 || got[0] != "user" {
		t.Fatalf("Vars = %v, want [user]", got)
	}

	for _, doc := range [][]byte{
		[]byte("ab@ba"),
		[]byte("aa@aa"), // no b anywhere: filtered out
		[]byte("ba:ab"),
		[]byte("a@b b:a"),
		nil,
	} {
		oe := oracleSet(t, pEmail, doc)
		op := oracleSet(t, pPhone, doc)
		of := oracleSet(t, pFilter, doc)
		wu := model.UnionSets(oe, op)
		unionReg, _, _, err := model.Merge(spannerRegistry(t, pEmail), spannerRegistry(t, pPhone))
		if err != nil {
			t.Fatal(err)
		}
		wj, err := model.JoinSets(wu, of, unionReg, spannerRegistry(t, pFilter))
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.ProjectSet(wj, []string{"user"}, model.NewRegistryOf("user"))
		if err != nil {
			t.Fatal(err)
		}
		assertSet(t, "π_user(join(union(emails, phones), filter))", final, doc, want)
	}
}

// TestAlgebraStreamingAndReaders checks that a composed spanner flows
// through the Reader-based entry points identically to whole-document
// evaluation.
func TestAlgebraStreamingAndReaders(t *testing.T) {
	j := compileQ(t, spanner.Pattern(`(a|b)*!x{a+}(a|b)*`).Join(spanner.Pattern(`(a|b)*!y{b+}(a|b)*`)))
	doc := []byte("aabbaabab")
	want := keys1Based(t, j, doc)

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		got := chunkedKeys(t, j, doc, chunkSizes(rng, len(doc)))
		for i := range got {
			got[i] = shiftKeyTo1Based(t, got[i])
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("EnumerateReader diverged: got %v, want %v", got, want)
		}
	}
	n, exact, err := j.CountReader(&randChunkReader{data: doc})
	if err != nil || !exact || n != uint64(len(want)) {
		t.Fatalf("CountReader = (%d, %v, %v), want (%d, true, nil)", n, exact, err, len(want))
	}
}

// TestAlgebraErrors covers the composition failure paths.
func TestAlgebraErrors(t *testing.T) {
	if _, err := spanner.Pattern(`!x{a}`).Project("nope").Compile(); err == nil {
		t.Fatal("projecting onto an unknown variable must fail")
	}
}

// TestAlgebraStats sanity-checks the composed spanners' metadata: the
// canonical re-parseable pattern, the variable union, and that a
// shared-variable join reports the sequentialization the construction
// relies on.
func TestAlgebraStats(t *testing.T) {
	q1, q2 := spanner.Pattern(`!x{a}(a|b)*`), spanner.Pattern(`!x{a*}!y{b*}`)
	j := compileQ(t, q1.Join(q2))
	if got, want := j.Pattern(), "join(/!x{a}(a|b)*/, /!x{a*}!y{b*}/)"; got != want {
		t.Fatalf("Pattern = %q, want %q", got, want)
	}
	// The canonical pattern round-trips through the query parser into an
	// equivalent spanner.
	back, err := spanner.ParseQuery(j.Pattern())
	if err != nil {
		t.Fatalf("Pattern() does not re-parse: %v", err)
	}
	jj, err := back.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if jj.Pattern() != j.Pattern() {
		t.Fatalf("round-tripped Pattern = %q, want %q", jj.Pattern(), j.Pattern())
	}
	for _, doc := range [][]byte{nil, []byte("a"), []byte("ab"), []byte("aabb")} {
		if a, b := keys1Based(t, j, doc), keys1Based(t, jj, doc); !slices.Equal(a, b) {
			t.Fatalf("round-tripped join diverges on %q: %v vs %v", doc, a, b)
		}
	}
	if got := j.Vars(); !slices.Equal(got, []string{"x", "y"}) {
		t.Fatalf("Vars = %v, want [x y]", got)
	}
	u := compileQ(t, q1.Union(q2))
	if got := u.Vars(); !slices.Equal(got, []string{"x", "y"}) {
		t.Fatalf("union Vars = %v, want [x y]", got)
	}
	if st := u.Stats(); st.EVAStates == 0 || st.Pattern != u.Pattern() {
		t.Fatalf("stats not populated: %+v", st)
	}
}
