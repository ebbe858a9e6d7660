package spanner_test

// Go-native fuzz targets for the differential-testing harness. Both
// targets also run their seed corpus under plain `go test`, so the
// equivalences below are checked on every CI run; `go test -fuzz=...`
// explores further. The properties:
//
//   - FuzzStrictLazyEquivalence: strict (dense-table) and lazy
//     (on-the-fly) determinization produce identical mapping sets for
//     random regex formulas (order may differ: their subset automata
//     number states differently), and identical counts when enumeration
//     would be too large.
//   - FuzzStreamChunking: EnumerateReader over any chunking of a document
//     is byte-identical to Enumerate over the concatenation, and
//     CountReader and CountBigReader over the same chunking count the
//     enumerated matches.
//   - FuzzQueryPlanEquivalence: for random query trees, the optimized and
//     unoptimized plans produce identical mapping sets and counts, in both
//     determinization modes.
//   - FuzzQueryMatchesFormulaSemantics: a random formula compiled the way
//     spannerd compiles it (ParseQuery + Query.Compile, strict and lazy)
//     produces exactly the mappings of the Table 1 semantics (rgx.Evaluate),
//     which shares only the parser with the automaton pipeline.

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"spanners/internal/gen"
	"spanners/internal/model"
	"spanners/internal/rgx"
	"spanners/spanner"
)

// fuzzPatterns are the fixed patterns FuzzStreamChunking draws from,
// compiled once. The nested pattern has Θ(n⁴) outputs, so documents fed to
// it are truncated harder (see docCap).
var fuzzPatterns = []struct {
	s      *spanner.Spanner
	lazy   *spanner.Spanner
	docCap int
}{
	{spanner.MustCompile(gen.Figure1Pattern()), spanner.MustCompile(gen.Figure1Pattern(), spanner.WithLazy()), 1 << 11},
	{spanner.MustCompile(`.*!w{[a-z]+}.*`), spanner.MustCompile(`.*!w{[a-z]+}.*`, spanner.WithLazy()), 512},
	{spanner.MustCompile(`(!x{(a|b)+}c?)*`), spanner.MustCompile(`(!x{(a|b)+}c?)*`, spanner.WithLazy()), 256},
	{spanner.MustCompile(gen.NestedPattern(2)), spanner.MustCompile(gen.NestedPattern(2), spanner.WithLazy()), 20},
}

// chunkedKeys streams doc through EnumerateReader in the chunks sizes
// lists and returns the ordered match keys.
func chunkedKeys(t *testing.T, s *spanner.Spanner, doc []byte, sizes []int) []string {
	t.Helper()
	return chunked(t, s, doc, sizes, (*spanner.Match).Key)
}

// chunked is chunkedKeys with each match rendered by render.
func chunked(t *testing.T, s *spanner.Spanner, doc []byte, sizes []int, render func(*spanner.Match) string) []string {
	t.Helper()
	var got []string
	if err := s.EnumerateReader(scheduled(doc, sizes), func(m *spanner.Match) bool {
		got = append(got, render(m))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// checkChunkedCounts checks that CountReader and CountBigReader, reading
// doc in the chunks sizes lists, both count want matches.
func checkChunkedCounts(t *testing.T, s *spanner.Spanner, doc []byte, sizes []int, want int) {
	t.Helper()
	if n, exact, err := s.CountReader(scheduled(doc, sizes)); err != nil || !exact || n != uint64(want) {
		t.Fatalf("CountReader in chunks %v of %q = (%d, %v, %v), want %d", sizes, doc, n, exact, err, want)
	}
	if n, err := s.CountBigReader(scheduled(doc, sizes)); err != nil || !n.IsUint64() || n.Uint64() != uint64(want) {
		t.Fatalf("CountBigReader in chunks %v of %q = (%v, %v), want %d", sizes, doc, n, err, want)
	}
}

// scheduled delivers doc in the chunks sizes lists, leaving sizes as it is.
func scheduled(doc []byte, sizes []int) *randChunkReader {
	return &randChunkReader{data: doc, sizes: slices.Clone(sizes)}
}

// randChunkReader delivers data according to a precomputed size schedule.
type randChunkReader struct {
	data  []byte
	sizes []int
}

func (r *randChunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if len(r.sizes) > 0 {
		n = r.sizes[0]
	}
	n = min(n, min(len(p), len(r.data)))
	if len(r.sizes) > 0 {
		if r.sizes[0] -= n; r.sizes[0] == 0 {
			r.sizes = r.sizes[1:]
		}
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func FuzzStreamChunking(f *testing.F) {
	f.Add(uint8(0), []byte("John <j@g.be>, Jane <555-12>"), uint64(1))
	f.Add(uint8(1), []byte("some words in here"), uint64(7))
	f.Add(uint8(2), []byte("abcbacab"), uint64(42))
	f.Add(uint8(3), []byte("aabbaab"), uint64(3))
	f.Add(uint8(0), []byte(""), uint64(0))
	f.Fuzz(func(t *testing.T, patIdx uint8, doc []byte, chunkSeed uint64) {
		p := fuzzPatterns[int(patIdx)%len(fuzzPatterns)]
		if len(doc) > p.docCap {
			doc = doc[:p.docCap]
		}
		// String renders each span's text too, read from the document
		// buffer the facade assembles from the chunks.
		var want []string
		p.s.Enumerate(doc, func(m *spanner.Match) bool {
			want = append(want, m.String())
			return true
		})
		rng := rand.New(rand.NewSource(int64(chunkSeed)))
		for trial := 0; trial < 3; trial++ {
			sizes := chunkSizes(rng, len(doc))
			got := chunked(t, p.s, doc, sizes, (*spanner.Match).String)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("chunked streaming diverged from whole-document evaluation\ndoc %q\ngot  %v\nwant %v",
					doc, got, want)
			}
			checkChunkedCounts(t, p.s, doc, sizes, len(want))
		}
		// The lazy backend must agree on a chunking too.
		sizes := chunkSizes(rng, len(doc))
		if got := chunked(t, p.lazy, doc, sizes, (*spanner.Match).String); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("lazy streaming diverged\ndoc %q\ngot  %v\nwant %v", doc, got, want)
		}
		checkChunkedCounts(t, p.lazy, doc, sizes, len(want))
	})
}

func FuzzStrictLazyEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(2), []byte("abab"))
	f.Add(uint64(99), uint8(3), []byte("aaaa"))
	f.Add(uint64(7), uint8(1), []byte(""))
	f.Add(uint64(1234), uint8(3), []byte("babab"))
	f.Fuzz(func(t *testing.T, patSeed uint64, depth uint8, raw []byte) {
		node := gen.RandomRGX(rand.New(rand.NewSource(int64(patSeed))), int(depth%4)+1, []string{"x", "y"}, "ab")
		strict, err := spanner.CompileNode(node, spanner.WithStrict())
		if err != nil {
			t.Skip() // e.g. dense compilation limits
		}
		lazy, err := spanner.CompileNode(node, spanner.WithLazy())
		if err != nil {
			t.Skip()
		}
		// Map the raw bytes onto the formula's alphabet so documents hit
		// the automaton, and bound the length (outputs grow like n^(2ℓ)).
		if len(raw) > 48 {
			raw = raw[:48]
		}
		doc := make([]byte, len(raw))
		for i, b := range raw {
			doc[i] = 'a' + b%2
		}

		wantN, exactN := strict.Count(doc)
		gotN, exactL := lazy.Count(doc)
		if wantN != gotN || exactN != exactL {
			t.Fatalf("counts diverge: strict (%d, %v), lazy (%d, %v)\npattern %s doc %q",
				wantN, exactN, gotN, exactL, node, doc)
		}
		if !exactN || wantN > 20000 {
			return // counting checked; enumeration would be unreasonably large
		}
		var want, got []string
		strict.Enumerate(doc, func(m *spanner.Match) bool { want = append(want, m.Key()); return true })
		lazy.Enumerate(doc, func(m *spanner.Match) bool { got = append(got, m.Key()); return true })
		// Strict and lazy determinization number their subset states (and
		// hence order capture transitions) differently, so the two modes
		// agree on the mapping SET, not on enumeration order. Both are
		// duplicate-free, so sorted keys compare the sets exactly.
		sortedWant := append([]string(nil), want...)
		sort.Strings(sortedWant)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(sortedWant) {
			t.Fatalf("enumerations diverge\npattern %s doc %q\nstrict %v\nlazy   %v", node, doc, sortedWant, got)
		}
		// Algorithm 2 is an independent reference for the counting pass.
		if uint64(len(want)) != wantN {
			t.Fatalf("Count = %d, enumerated %d\npattern %s doc %q", wantN, len(want), node, doc)
		}
		if strict.IsEmpty(doc) != (wantN == 0) || lazy.IsEmpty(doc) != (wantN == 0) {
			t.Fatalf("IsEmpty disagrees with count %d\npattern %s doc %q", wantN, node, doc)
		}
		// And the streaming path over the strict backend, with a chunking
		// derived from the same entropy.
		rng := rand.New(rand.NewSource(int64(patSeed) ^ int64(len(raw))))
		if chunked := chunkedKeys(t, strict, doc, chunkSizes(rng, len(doc))); fmt.Sprint(chunked) != fmt.Sprint(want) {
			t.Fatalf("stream chunking diverges\npattern %s doc %q", node, doc)
		}
	})
}

// FuzzQueryPlanEquivalence is the optimizer half of the differential
// harness: for random query trees and documents, compiling with the
// logical optimizer and compiling the plan exactly as written must produce
// identical counts and mapping sets, in both determinization modes. The
// deeper oracle-composition check runs in TestQueryPlanDifferentialRandom;
// this target explores the tree/document space further.
func FuzzQueryPlanEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(2), []byte("ab"))
	f.Add(uint64(7), uint8(1), []byte(""))
	f.Add(uint64(42), uint8(3), []byte("abba"))
	f.Add(uint64(20260728), uint8(2), []byte("babab"))
	f.Fuzz(func(t *testing.T, seed uint64, depth uint8, raw []byte) {
		rng := rand.New(rand.NewSource(int64(seed)))
		qt := randomQueryTree(rng, int(depth%3)+1)
		opt, err := qt.q.Compile()
		if err != nil {
			t.Skip() // e.g. dense compilation limits
		}
		unopt, err := qt.q.Compile(spanner.WithoutOptimization())
		if err != nil {
			t.Skip() // dedup can shrink past a limit the raw plan hits
		}
		lazyOpt, err := qt.q.Compile(spanner.WithLazy())
		if err != nil {
			t.Skip()
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		doc := make([]byte, len(raw))
		for i, b := range raw {
			doc[i] = 'a' + b%2
		}

		wantN, wantExact := unopt.Count(doc)
		for _, s := range []*spanner.Spanner{opt, lazyOpt} {
			if n, exact := s.Count(doc); n != wantN || exact != wantExact {
				t.Fatalf("counts diverge on %s: optimized (%s mode) (%d, %v), unoptimized (%d, %v)\ndoc %q",
					qt.q, s.Mode(), n, exact, wantN, wantExact, doc)
			}
		}
		if !wantExact || wantN > 20000 {
			return // counting checked; enumeration would be unreasonably large
		}
		want := sortedKeys(unopt, doc)
		for _, s := range []*spanner.Spanner{opt, lazyOpt} {
			if got := sortedKeys(s, doc); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("enumerations diverge on %s (%s mode)\ndoc %q\ngot  %v\nwant %v",
					qt.q, s.Mode(), doc, got, want)
			}
		}
	})
}

// sortedKeys enumerates s on doc and returns the sorted match keys (the
// plans number automaton states differently, so only the sets compare).
func sortedKeys(s *spanner.Spanner, doc []byte) []string {
	var out []string
	s.Enumerate(doc, func(m *spanner.Match) bool {
		out = append(out, m.Key())
		return true
	})
	sort.Strings(out)
	return out
}

// FuzzAlgebraOracle is the algebra half of the differential harness: for
// random pattern pairs and documents it checks the union, join and
// projection queries against the set-theoretic composition of brute-force
// oracle results.
// Documents are kept tiny — the oracle enumerates every candidate marker
// placement, exponential in the variable count.
func FuzzAlgebraOracle(f *testing.F) {
	f.Add(uint64(1), uint64(2), []byte("ab"))
	f.Add(uint64(7), uint64(7), []byte("bab"))
	f.Add(uint64(42), uint64(3), []byte(""))
	f.Add(uint64(9), uint64(11), []byte("aaab"))
	f.Fuzz(func(t *testing.T, seed1, seed2 uint64, raw []byte) {
		n1 := gen.RandomRGX(rand.New(rand.NewSource(int64(seed1))), 3, []string{"x", "y"}, "ab")
		n2 := gen.RandomRGX(rand.New(rand.NewSource(int64(seed2))), 3, []string{"y", "z"}, "ab")
		if _, err := spanner.CompileNode(n1); err != nil {
			t.Skip()
		}
		if _, err := spanner.CompileNode(n2); err != nil {
			t.Skip()
		}
		if len(raw) > 5 {
			raw = raw[:5]
		}
		doc := make([]byte, len(raw))
		for i, b := range raw {
			doc[i] = 'a' + b%2
		}
		p1, p2 := n1.String(), n2.String()
		o1, o2 := oracleSet(t, p1, doc), oracleSet(t, p2, doc)
		q1, q2 := spanner.Pattern(p1), spanner.Pattern(p2)

		union := compileQ(t, q1.Union(q2))
		assertSet(t, "fuzz union", union, doc, model.UnionSets(o1, o2))

		join := compileQ(t, q1.Join(q2))
		wantJ, err := model.JoinSets(o1, o2, spannerRegistry(t, p1), spannerRegistry(t, p2))
		if err != nil {
			t.Fatal(err)
		}
		assertSet(t, "fuzz join", join, doc, wantJ)

		keep := knownVars(t, q1, []string{"x"})
		proj := compileQ(t, q1.Project(keep...))
		wantP, err := model.ProjectSet(o1, keep, model.NewRegistryOf(keep...))
		if err != nil {
			t.Fatal(err)
		}
		assertSet(t, "fuzz project", proj, doc, wantP)
	})
}

// FuzzQueryMatchesFormulaSemantics is the differential that shares no
// construction with the code under test: a random formula goes through the
// path spannerd takes — a /…/ query literal, ParseQuery, Query.Compile in
// strict and in lazy mode — and the mappings and the count it produces on a
// small document must be exactly those of the executable Table 1 semantics
// (rgx.Evaluate), which shares only the formula parser with it.
func FuzzQueryMatchesFormulaSemantics(f *testing.F) {
	f.Add(uint64(1), uint8(2), []byte("ab"))
	f.Add(uint64(7), uint8(3), []byte(""))
	f.Add(uint64(42), uint8(3), []byte("abba"))
	f.Add(uint64(321), uint8(1), []byte("bab"))
	f.Fuzz(func(t *testing.T, seed uint64, depth uint8, raw []byte) {
		node := gen.RandomRGX(rand.New(rand.NewSource(int64(seed))), int(depth%4)+1, []string{"x", "y"}, "ab")
		src := "/" + strings.NewReplacer(`\`, `\\`, `/`, `\/`).Replace(node.String()) + "/"
		q, err := spanner.ParseQuery(src)
		if err != nil {
			t.Fatalf("ParseQuery(%s): %v", src, err)
		}
		if len(raw) > 6 {
			raw = raw[:6]
		}
		doc := make([]byte, len(raw))
		for i, b := range raw {
			doc[i] = 'a' + b%2
		}
		want, err := rgx.Evaluate(node, doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
			s, err := q.Compile(spanner.WithMode(mode))
			if err != nil {
				t.Skip() // e.g. dense compilation limits
			}
			if n, exact := s.Count(doc); !exact || n != uint64(want.Len()) {
				t.Fatalf("%s (%s mode) on %q: Count = (%d, %v), the semantics has %d mappings",
					src, mode, doc, n, exact, want.Len())
			}
			keys := sortedKeys(s, doc)
			if len(keys) != want.Len() {
				t.Fatalf("%s (%s mode) on %q: %d mappings, the semantics has %d",
					src, mode, doc, len(keys), want.Len())
			}
			for _, k := range keys {
				if !want.ContainsKey(shiftKeyTo1Based(t, k)) {
					t.Fatalf("%s (%s mode) on %q: mapping %q is not in the semantics", src, mode, doc, k)
				}
			}
		}
	})
}
