package oracle_test

import (
	"math/rand"
	"testing"

	"spanners/internal/core"
	"spanners/internal/eva"
	"spanners/internal/gen"
	"spanners/internal/model"
	"spanners/internal/oracle"
	"spanners/internal/rgx"
)

// backends compiles a pattern into the three evaluation backends whose
// agreement with the oracle the tests assert: the strict deterministic eVA
// (interface Step path), its dense-compiled form, and a lazy on-the-fly
// determinizer.
func backends(t *testing.T, node rgx.Node) (det *eva.EVA, dense *eva.Compiled, lazy *eva.Lazy) {
	t.Helper()
	v, err := rgx.Compile(node)
	if err != nil {
		t.Fatalf("compile %s: %v", node, err)
	}
	seq := v.ToExtended().Trim()
	if !seq.IsSequential() {
		seq = seq.Sequentialize().Trim()
	}
	det = seq.Determinize()
	dense, err = det.CompileDense()
	if err != nil {
		t.Fatalf("dense %s: %v", node, err)
	}
	return det, dense, eva.NewLazy(seq)
}

// streamed evaluates a through the incremental Stream, split into
// pseudo-random chunks.
func streamed(a core.Automaton, doc []byte, rng *rand.Rand) *model.MappingSet {
	s := core.NewStream(a, nil)
	for i := 0; i < len(doc); {
		n := 1 + rng.Intn(len(doc)-i)
		s.Feed(doc[i : i+n])
		i += n
	}
	return s.Close(doc).Collect()
}

// checkAll asserts that every evaluation path over a agrees exactly with
// the brute-force oracle.
func checkAll(t *testing.T, name string, det *eva.EVA, dense *eva.Compiled, lazy *eva.Lazy, doc []byte, rng *rand.Rand) {
	t.Helper()
	want := oracle.Enumerate(det, doc)
	paths := []struct {
		path string
		got  *model.MappingSet
	}{
		{"strict", core.Evaluate(det, doc).Collect()},
		{"dense", core.Evaluate(dense, doc).Collect()},
		{"lazy", core.Evaluate(lazy, doc).Collect()},
		{"stream", streamed(dense, doc, rng)},
	}
	for _, p := range paths {
		if !p.got.Equal(want) {
			t.Fatalf("%s doc %q: %s path disagrees with oracle:\n%v",
				name, doc, p.path, want.Diff(p.got, 10))
		}
	}
}

func TestOracleFigure3(t *testing.T) {
	// The worked example of Section 3.2.2: the oracle must find exactly
	// µ1, µ2, µ3 on "ab" — via the forced simulation alone.
	a := gen.Figure3EVA()
	got := oracle.Enumerate(a, []byte("ab"))
	if got.Len() != 3 {
		t.Fatalf("oracle found %d mappings, want 3:\n%v", got.Len(), got)
	}
	for _, key := range []string{"x=[1,3)|y=[2,3)", "x=[2,3)|y=[1,3)", "x=[1,3)|y=[1,3)"} {
		if !got.ContainsKey(key) {
			t.Fatalf("oracle missing %s:\n%v", key, got)
		}
	}
	if want := a.Eval([]byte("ab")); !got.Equal(want) {
		t.Fatalf("oracle disagrees with the exhaustive run explorer:\n%v", want.Diff(got, 10))
	}
}

func TestOracleTableDriven(t *testing.T) {
	// Hand-picked formulas covering empty spans, optional captures,
	// alternation, stars over captures, and the empty mapping.
	rng := rand.New(rand.NewSource(71))
	cases := []struct {
		pattern string
		docs    []string
	}{
		{`!x{a*}`, []string{"", "a", "aaa"}},
		{`(!x{a})?b`, []string{"b", "ab", "bb"}},
		{`.*!x{a+}!y{b+}.*`, []string{"", "ab", "aabb", "abab"}},
		{`(!x{(a|b)+}c?)*`, []string{"", "ac", "abcba", "ccc"}},
		{`!x{.*}!y{.*}`, []string{"", "a", "ab", "abc"}},
		{`a*`, []string{"", "aa", "b"}}, // no variables: the empty mapping iff accepted
	}
	for _, tc := range cases {
		node, err := rgx.Parse(tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		det, dense, lazy := backends(t, node)
		for _, doc := range tc.docs {
			checkAll(t, tc.pattern, det, dense, lazy, []byte(doc), rng)
		}
	}
}

func TestOracleRandomFormulas(t *testing.T) {
	// Random formulas (including non-sequential ones that go through the
	// Proposition 4.1 product) against the oracle, on every document of
	// length ≤ 3 over {a, b} plus a couple of longer ones.
	rng := rand.New(rand.NewSource(137))
	docs := []string{"", "a", "b", "aa", "ab", "ba", "bb", "aab", "bab", "abab"}
	for i := 0; i < 40; i++ {
		node := gen.RandomRGX(rng, 3, []string{"x", "y"}, "ab")
		det, dense, lazy := backends(t, node)
		if det.Registry().Len() > 2 {
			t.Fatal("variable pool exceeded")
		}
		for _, doc := range docs {
			checkAll(t, node.String(), det, dense, lazy, []byte(doc), rng)
		}
	}
}

func TestOracleAgreesWithTable1Interpreter(t *testing.T) {
	// Two independent references — the Table 1 regex-formula interpreter
	// and the forced-simulation oracle over the compiled automaton — must
	// agree; a discrepancy would indict the compilation pipeline.
	rng := rand.New(rand.NewSource(211))
	docs := []string{"", "a", "b", "ab", "ba", "abb"}
	for i := 0; i < 25; i++ {
		node := gen.RandomRGX(rng, 3, []string{"x", "y"}, "ab")
		det, _, _ := backends(t, node)
		for _, doc := range docs {
			want, err := rgx.Evaluate(node, []byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			got := oracle.Enumerate(det, []byte(doc))
			if !got.Equal(want) {
				t.Fatalf("case %d (%s) doc %q:\n%v", i, node, doc, want.Diff(got, 10))
			}
		}
	}
}
