package spanner_test

import (
	"math/rand"
	"reflect"
	"testing"

	"spanners/internal/gen"
	"spanners/internal/rgx"
	"spanners/spanner"
)

// TestStrictLazyEquivalence is the determinization-equivalence property
// test: compiling the same pattern with strict and lazy determinization
// must yield identical mapping sets and identical counts on every
// document. Patterns cover the paper's running example, the
// nested-variable worst case, and random formulas (including
// non-sequential ones); documents come from the gen workload generators.
func TestStrictLazyEquivalence(t *testing.T) {
	docs := [][]byte{
		nil,
		gen.Figure1Doc(),
		gen.Contacts(8, 3),
		gen.RandomDoc(64, "ab", 5),
		gen.LogDoc(2, 9),
	}

	patterns := []string{
		gen.Figure1Pattern(),
		gen.NestedPattern(2),
		`(!x{a})*b`,
		`.*!w{\w+}.*`,
	}
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 20; i++ {
		patterns = append(patterns, gen.RandomRGX(rng, 3, []string{"x", "y"}, "ab").String())
	}

	for _, p := range patterns {
		strict, err := spanner.Compile(p, spanner.WithStrict())
		if err != nil {
			t.Fatalf("strict compile %q: %v", p, err)
		}
		lazy, err := spanner.Compile(p, spanner.WithLazy())
		if err != nil {
			t.Fatalf("lazy compile %q: %v", p, err)
		}
		for _, doc := range docs {
			sCnt, sExact := strict.Count(doc)
			lCnt, lExact := lazy.Count(doc)
			if sCnt != lCnt || sExact != lExact {
				t.Fatalf("pattern %q doc %.40q: strict count %d (%v), lazy count %d (%v)",
					p, doc, sCnt, sExact, lCnt, lExact)
			}
			// Output-heavy pattern/document pairs (nested variables produce
			// Ω(|d|^ℓ) mappings) are compared by count only; full mapping
			// sets are compared whenever enumeration is tractable.
			if !sExact || sCnt > 20000 {
				continue
			}
			sKeys := collectKeys(strict, doc)
			lKeys := collectKeys(lazy, doc)
			if !reflect.DeepEqual(sKeys, lKeys) {
				t.Fatalf("pattern %q doc %.40q: strict %d mappings, lazy %d mappings\nstrict: %v\nlazy: %v",
					p, doc, len(sKeys), len(lKeys), sKeys, lKeys)
			}
			if sCnt != uint64(len(sKeys)) {
				t.Fatalf("pattern %q doc %.40q: count %d disagrees with enumeration %d",
					p, doc, sCnt, len(sKeys))
			}
			if strict.IsEmpty(doc) != lazy.IsEmpty(doc) {
				t.Fatalf("pattern %q doc %.40q: IsEmpty disagrees", p, doc)
			}
		}
		// Lazy never mints more subset states than strict materializes.
		if ls, ss := lazy.Stats().DetStates, strict.Stats().DetStates; ls > ss {
			t.Fatalf("pattern %q: lazy discovered %d states, strict has %d", p, ls, ss)
		}
	}
}

// TestFacadeMatchesReferenceSemantics checks the facade end-to-end against
// the exhaustive Table 1 interpreter on random formulas — the same
// differential oracle the core tests use, but driven through the public
// API.
func TestFacadeMatchesReferenceSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	docs := [][]byte{nil, []byte("a"), []byte("ab"), []byte("ba"), []byte("aab")}
	for i := 0; i < 40; i++ {
		node := gen.RandomRGX(rng, 3, []string{"x", "y"}, "ab")
		s, err := spanner.CompileNode(node)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs {
			want, err := rgx.Evaluate(node, doc)
			if err != nil {
				t.Fatal(err)
			}
			keys := collectKeys(s, doc)
			if len(keys) != want.Len() {
				t.Fatalf("case %d (%s) doc %q: facade %d mappings, reference %d",
					i, node, doc, len(keys), want.Len())
			}
			for _, k := range keys {
				if !want.ContainsKey(shiftKeyTo1Based(t, k)) {
					t.Fatalf("case %d (%s) doc %q: facade emitted %q not in reference set",
						i, node, doc, k)
				}
			}
		}
	}
}

// shiftKeyTo1Based converts a facade Match key (0-based offsets) into the
// model.Mapping key convention (1-based positions).
func shiftKeyTo1Based(t *testing.T, key string) string {
	t.Helper()
	out := make([]byte, 0, len(key))
	i := 0
	for i < len(key) {
		// copy "var=[" verbatim
		j := i
		for key[j] != '[' {
			j++
		}
		j++
		out = append(out, key[i:j]...)
		// start
		k := j
		for key[k] != ',' {
			k++
		}
		start := atoi(key[j:k])
		// end
		l := k + 1
		for key[l] != ')' {
			l++
		}
		end := atoi(key[k+1 : l])
		out = appendInt(out, start+1)
		out = append(out, ',')
		out = appendInt(out, end+1)
		out = append(out, ')')
		i = l + 1
		if i < len(key) && key[i] == '|' {
			out = append(out, '|')
			i++
		}
	}
	return string(out)
}

func atoi(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	return n
}

func appendInt(b []byte, n int) []byte {
	if n >= 10 {
		b = appendInt(b, n/10)
	}
	return append(b, byte('0'+n%10))
}

// TestStrictLazySameEnumerationOrder checks that strict and lazy mode
// enumerate the same mappings in the same order, not only the same set
// (FuzzStrictLazyEquivalence compares sorted keys). Both modes order each
// state's capture transitions by marker set and the evaluator keeps one
// live-list discipline, so their enumeration DAGs are isomorphic. The
// output is capped per document.
func TestStrictLazySameEnumerationOrder(t *testing.T) {
	const limit = 5000
	type workload struct {
		pattern string
		docs    [][]byte
	}
	cases := []workload{
		{gen.Figure1Pattern(), [][]byte{gen.Figure1Doc(), gen.Contacts(20, 3)}},
		{gen.NestedPattern(2), [][]byte{[]byte("abcd"), gen.DenseMarkers(256, 1)}},
		{gen.SparsePattern, [][]byte{gen.SparseMatches(4096, 0.005, 2)}},
	}
	rng := rand.New(rand.NewSource(321))
	for range 300 {
		var docs [][]byte
		for range 5 {
			docs = append(docs, gen.RandomDoc(rng.Intn(10), "abc", rng.Int63()))
		}
		node := gen.RandomRGX(rng, 3, []string{"x", "y", "z", "w"}, "abc")
		cases = append(cases, workload{node.String(), docs})
	}
	keys := func(s *spanner.Spanner, doc []byte) []string {
		var out []string
		s.Enumerate(doc, func(m *spanner.Match) bool {
			out = append(out, m.Key())
			return len(out) < limit
		})
		return out
	}
	for _, c := range cases {
		strict, err := spanner.Compile(c.pattern, spanner.WithStrict())
		if err != nil {
			t.Fatalf("strict compile %q: %v", c.pattern, err)
		}
		lazy, err := spanner.Compile(c.pattern, spanner.WithLazy())
		if err != nil {
			t.Fatalf("lazy compile %q: %v", c.pattern, err)
		}
		for _, doc := range c.docs {
			want, got := keys(strict, doc), keys(lazy, doc)
			if i := firstDiff(want, got); i >= 0 {
				t.Fatalf("pattern %q doc %.40q: output %d differs (strict %d outputs, lazy %d)\nstrict %v\nlazy   %v",
					c.pattern, doc, i, len(want), len(got), want[i:min(i+3, len(want))], got[i:min(i+3, len(got))])
			}
		}
	}
}

// firstDiff returns the first index where a and b differ, -1 when equal.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
