package spanner_test

// Differential suite for the skipping scan path: every corpus
// is evaluated with the prefilter on and off (WithoutPrefilter), in both
// determinization modes, and the four results must agree byte-for-byte on
// counts and on the mapping set — with the brute-force oracle as ground
// truth where the documents are small enough for it. The corpora cover the
// three regimes the accelerator distinguishes: sparse (long inert runs,
// the payoff case), dense (every position matches, acceleration moot), and
// adversarial (candidate-dense, the effectiveness fallback must engage
// without changing results). Chunked streaming runs throughout so
// occurrences of "www." straddling chunk boundaries are exercised.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// pfVariant is one (mode, prefilter) combination of a pattern.
type pfVariant struct {
	name string
	s    *spanner.Spanner
}

// prefilterVariants compiles pattern four ways: {strict, lazy} × {prefilter
// on, off}. The first entry (strict, prefilter off) is the reference.
func prefilterVariants(t *testing.T, pattern string) []pfVariant {
	t.Helper()
	mk := func(opts ...spanner.Option) *spanner.Spanner {
		s, err := spanner.Compile(pattern, opts...)
		if err != nil {
			t.Fatalf("compile %q: %v", pattern, err)
		}
		return s
	}
	return []pfVariant{
		{"strict/off", mk(spanner.WithStrict(), spanner.WithoutPrefilter())},
		{"strict/on", mk(spanner.WithStrict())},
		{"lazy/off", mk(spanner.WithLazy(), spanner.WithoutPrefilter())},
		{"lazy/on", mk(spanner.WithLazy())},
	}
}

// assertPrefilterAgree checks that all variants produce the reference
// count, and — when the output is small enough to enumerate — the
// reference mapping set, both whole-document and (when rng is non-nil)
// through randomly chunked streaming.
func assertPrefilterAgree(t *testing.T, vs []pfVariant, doc []byte, rng *rand.Rand) {
	t.Helper()
	wantN, wantExact := vs[0].s.Count(doc)
	var want []string
	enumerate := wantExact && wantN <= 50000
	if enumerate {
		want = sortedKeys(vs[0].s, doc)
	}
	for _, v := range vs[1:] {
		if n, exact := v.s.Count(doc); n != wantN || exact != wantExact {
			t.Fatalf("%s: Count = (%d, %v), reference (%d, %v)", v.name, n, exact, wantN, wantExact)
		}
	}
	if !enumerate {
		return
	}
	for _, v := range vs {
		if got := sortedKeys(v.s, doc); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: mapping set diverges\ngot  %v\nwant %v", v.name, got, want)
		}
		if rng == nil {
			continue
		}
		got := chunkedKeys(t, v.s, doc, chunkSizes(rng, len(doc)))
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: chunked streaming diverges from whole-document set", v.name)
		}
		if n, exact, err := v.s.CountReader(&randChunkReader{data: doc, sizes: chunkSizes(rng, len(doc))}); err != nil || n != wantN || exact != wantExact {
			t.Fatalf("%s: CountReader = (%d, %v, %v), reference (%d, %v)", v.name, n, exact, err, wantN, wantExact)
		}
	}
}

// chunkSizes draws a random chunk schedule covering n bytes.
func chunkSizes(rng *rand.Rand, n int) []int {
	var sizes []int
	for rem := n; rem > 0; {
		k := 1 + rng.Intn(rem)
		sizes = append(sizes, k)
		rem -= k
	}
	return sizes
}

func TestPrefilterDifferentialSparse(t *testing.T) {
	vs := prefilterVariants(t, gen.SparsePattern)
	rng := rand.New(rand.NewSource(11))
	for _, density := range []float64{0, 0.0005, 0.01} {
		doc := gen.SparseMatches(1<<14, density, 11)
		assertPrefilterAgree(t, vs, doc, rng)
	}
	// The accelerated variant must actually have taken the fast path: on
	// the sparse corpora nearly every byte is provably inert.
	st := vs[1].s.Stats()
	if !st.PrefilterEnabled {
		t.Fatalf("strict/on stats = %+v: prefilter must be on", st)
	}
	if st.PrefilterSkippedBytes == 0 {
		t.Fatal("prefilter skipped no bytes on a sparse corpus")
	}
	if off := vs[0].s.Stats(); off.PrefilterEnabled || off.PrefilterSkippedBytes != 0 {
		t.Fatalf("strict/off stats = %+v: WithoutPrefilter must report disabled", off)
	}
}

func TestPrefilterDifferentialDense(t *testing.T) {
	// Every contact entry matches: acceleration finds no long inert runs,
	// and results must be unchanged.
	vs := prefilterVariants(t, gen.Figure1Pattern())
	doc := gen.Contacts(120, 5)
	assertPrefilterAgree(t, vs, doc, rand.New(rand.NewSource(5)))
}

func TestPrefilterDifferentialAdversarial(t *testing.T) {
	// Candidate-dense corpus: almost every position starts a literal
	// fragment, so no byte is inert long — without changing any result.
	vs := prefilterVariants(t, gen.SparsePattern)
	small := gen.DenseCandidates(1<<10, 3)
	assertPrefilterAgree(t, vs, small, rand.New(rand.NewSource(3)))

	// On repeated "wwwxx" the second x of every period is inert and the
	// next w is not, so every skip attempt is short and the effectiveness
	// fallback must disable the prefilter mid-document.
	for _, big := range [][]byte{gen.DenseCandidates(1<<15, 3), bytes.Repeat([]byte("wwwxx"), 1<<13)} {
		wantN, wantExact := vs[0].s.Count(big)
		for _, v := range vs[1:] {
			if n, exact := v.s.Count(big); n != wantN || exact != wantExact {
				t.Fatalf("%s: Count = (%d, %v), reference (%d, %v)", v.name, n, exact, wantN, wantExact)
			}
			// Both count paths harvest the gate counters into Stats.
			if n, exact, err := v.s.CountReader(bytes.NewReader(big)); err != nil || n != wantN || exact != wantExact {
				t.Fatalf("%s: CountReader = (%d, %v, %v), reference (%d, %v)", v.name, n, exact, err, wantN, wantExact)
			}
		}
	}
	if st := vs[1].s.Stats(); st.PrefilterFallbacks == 0 {
		t.Fatalf("stats = %+v: the density fallback must have engaged on the adversarial corpus", st)
	}
}

func TestPrefilterChunkBoundaryStraddle(t *testing.T) {
	// Place literal occurrences so that every fixed chunk size in [1, 9]
	// splits some occurrence across a boundary; the streamed mapping set
	// must match whole-document evaluation for every variant.
	var b bytes.Buffer
	for i := 0; i < 12; i++ {
		b.WriteString("xx.,;!xy"[:1+i%7])
		b.WriteString("www.host")
	}
	doc := b.Bytes()
	vs := prefilterVariants(t, gen.SparsePattern)
	want := sortedKeys(vs[0].s, doc)
	if len(want) == 0 {
		t.Fatal("straddle document must have matches")
	}
	for _, v := range vs {
		for k := 1; k <= 9; k++ {
			sizes := make([]int, 0, len(doc)/k+1)
			for rem := len(doc); rem > 0; rem -= k {
				sizes = append(sizes, min(k, rem))
			}
			var got []string
			if err := v.s.EnumerateReader(&randChunkReader{data: doc, sizes: sizes}, func(m *spanner.Match) bool {
				got = append(got, m.Key())
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: chunk size %d diverges\ngot  %v\nwant %v", v.name, k, got, want)
			}
		}
	}
}

func TestPrefilterOracleDifferential(t *testing.T) {
	// Ground truth on small documents: the brute-force oracle enumerates
	// every candidate marker placement. Documents are chosen around the
	// literal's failure modes — partial occurrences, overlapping runs of
	// the lead byte, occurrences at the document edges.
	docs := []string{
		"",
		"w",
		"www.",
		"www.a",
		"xwww.ab",
		"www.a wz",
		"wwww.ab",
		"ww.www.b",
		"www.awww.b",
		".www.a www.",
	}
	for _, raw := range docs {
		doc := []byte(raw)
		want := oracleSet(t, gen.SparsePattern, doc)
		for _, v := range prefilterVariants(t, gen.SparsePattern) {
			assertSet(t, "prefilter oracle "+v.name, v.s, doc, want)
		}
	}
}

// fuzzPrefilterVariants backs FuzzPrefilterEquivalence, compiled once.
var fuzzPrefilterVariants = []struct {
	name string
	s    *spanner.Spanner
}{
	{"strict/off", spanner.MustCompile(gen.SparsePattern, spanner.WithStrict(), spanner.WithoutPrefilter())},
	{"strict/on", spanner.MustCompile(gen.SparsePattern, spanner.WithStrict())},
	{"lazy/off", spanner.MustCompile(gen.SparsePattern, spanner.WithLazy(), spanner.WithoutPrefilter())},
	{"lazy/on", spanner.MustCompile(gen.SparsePattern, spanner.WithLazy())},
}

// FuzzPrefilterEquivalence is the prefilter half of the differential
// harness: for arbitrary documents and chunkings, evaluation with the
// prefilter must be indistinguishable from evaluation without it,
// in both determinization modes, for Count, Enumerate, and chunked
// streaming. Seeds cover the planted-sparse, adversarial, and
// boundary-straddling corpora.
func FuzzPrefilterEquivalence(f *testing.F) {
	f.Add([]byte(""), uint64(0))
	f.Add([]byte("www.a"), uint64(1))
	f.Add([]byte("no candidates here at all"), uint64(2))
	f.Add(gen.SparseMatches(256, 0.02, 9), uint64(3))
	f.Add(gen.DenseCandidates(256, 9), uint64(4))
	f.Add([]byte("xx www.host ww.w wwww.ab www."), uint64(5))
	f.Fuzz(func(t *testing.T, doc []byte, chunkSeed uint64) {
		if len(doc) > 1<<11 {
			doc = doc[:1<<11]
		}
		ref := fuzzPrefilterVariants[0].s
		wantN, wantExact := ref.Count(doc)
		var want []string
		enumerate := wantExact && wantN <= 20000
		if enumerate {
			want = sortedKeys(ref, doc)
		}
		rng := rand.New(rand.NewSource(int64(chunkSeed)))
		for _, v := range fuzzPrefilterVariants[1:] {
			if n, exact := v.s.Count(doc); n != wantN || exact != wantExact {
				t.Fatalf("%s: Count = (%d, %v), reference (%d, %v)\ndoc %q", v.name, n, exact, wantN, wantExact, doc)
			}
			if !enumerate {
				continue
			}
			if got := sortedKeys(v.s, doc); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: mapping set diverges\ndoc %q\ngot  %v\nwant %v", v.name, doc, got, want)
			}
			got := chunkedKeys(t, v.s, doc, chunkSizes(rng, len(doc)))
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: chunked streaming diverges\ndoc %q", v.name, doc)
			}
		}
	})
}

// TestPrefilterStatsModeParity checks that both modes report the
// prefilter as on exactly when WithoutPrefilter was not given. The
// patterns are the differential suites' workloads, the structural
// Figure-1 variants of the query-churn benchmark (Figure 1 itself is the
// first), and an anchored pattern.
func TestPrefilterStatsModeParity(t *testing.T) {
	patterns := []string{
		gen.Figure1Pattern(),
		gen.SparsePattern,
		gen.NestedPattern(2),
		`.*!name{[A-Z][a-z]+} <!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}>.*`,
		`.*!name{[A-Z][a-z]+} <!phone{[0-9]+-[0-9]+}>.*`,
		`.*<(!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*`,
		`abc(a|b|c)*`,
	}
	for _, p := range patterns {
		for i, v := range prefilterVariants(t, p) { // strict/off, strict/on, lazy/off, lazy/on
			if got, want := v.s.Stats().PrefilterEnabled, i%2 == 1; got != want {
				t.Fatalf("%q %s: PrefilterEnabled %v, want %v", p, v.name, got, want)
			}
		}
	}
}
