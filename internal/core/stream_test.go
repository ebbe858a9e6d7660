package core_test

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"spanners/internal/core"
	"spanners/internal/gen"
	"spanners/internal/model"
	"spanners/internal/oracle"
	"spanners/internal/rgx"
	"spanners/spanner"
)

// chunks splits doc into pseudo-random pieces (including empty ones) so the
// streaming tests exercise arbitrary Feed boundaries.
func chunks(doc []byte, rng *rand.Rand) [][]byte {
	var out [][]byte
	for i := 0; i < len(doc); {
		n := rng.Intn(len(doc) - i + 1)
		out = append(out, doc[i:i+n])
		i += n
		if rng.Intn(8) == 0 {
			out = append(out, nil) // empty Feed must be a no-op
		}
	}
	return out
}

func TestStreamMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cases := []struct {
		pattern string
		docs    [][]byte
	}{
		{gen.Figure1Pattern(), [][]byte{
			nil,
			[]byte("a"),
			gen.Figure1Doc(),
			gen.Contacts(20, 3),
			gen.RandomDoc(200, "ab <>@.-", 5),
		}},
		// The nested pattern has Θ(n⁴) outputs: keep its documents small
		// enough to Collect.
		{gen.NestedPattern(2), [][]byte{nil, gen.RandomDoc(12, "ab", 4)}},
		{`.*!w{[a-z]+}.*`, [][]byte{[]byte("some words in here"), gen.RandomDoc(64, "ab ", 6)}},
	}
	for _, tc := range cases {
		pattern := tc.pattern
		d := pipeline(t, pattern)
		for _, doc := range tc.docs {
			want := core.Evaluate(d, doc).Collect()
			for trial := 0; trial < 5; trial++ {
				s := core.NewStream(d, nil)
				for _, c := range chunks(doc, rng) {
					s.Feed(c)
				}
				res := s.Close(doc)
				if got := res.Collect(); !got.Equal(want) {
					t.Fatalf("pattern %q doc %q trial %d: stream disagrees:\n%v",
						pattern, doc, trial, want.Diff(got, 10))
				}
				if string(res.Document()) != string(doc) {
					t.Fatalf("Document() = %q, want %q", res.Document(), doc)
				}
			}
		}
	}
}

func TestStreamByteAtATime(t *testing.T) {
	a := gen.Figure3EVA()
	doc := []byte("ab")
	s := core.NewStream(a, nil)
	for i := range doc {
		s.Feed(doc[i : i+1])
		if s.Pos() != i+1 {
			t.Fatalf("Pos = %d after %d bytes", s.Pos(), i+1)
		}
	}
	got := s.Close(doc).Collect()
	want := core.Evaluate(a, doc).Collect()
	if !got.Equal(want) {
		t.Fatalf("byte-at-a-time stream disagrees:\n%v", want.Diff(got, 10))
	}
}

func TestStreamCloseIdempotentAndFeedPanics(t *testing.T) {
	a := gen.Figure3EVA()
	s := core.NewStream(a, nil)
	s.Feed([]byte("ab"))
	r1 := s.Close([]byte("ab"))
	if r2 := s.Close([]byte("ab")); r2 != r1 {
		t.Fatal("Close must be idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Feed after Close must panic")
		}
	}()
	s.Feed([]byte("x"))
}

func TestStreamDeadShortcut(t *testing.T) {
	// Figure3EVA dies on 'z'; the stream must report it, still account for
	// the remaining bytes, and keep the full document.
	a := gen.Figure3EVA()
	s := core.NewStream(a, nil)
	s.Feed([]byte("az"))
	if !s.Dead() {
		t.Fatal("expected Dead after the run-killing byte")
	}
	s.Feed([]byte("abababab"))
	if s.Pos() != 10 {
		t.Fatalf("Pos = %d, want 10", s.Pos())
	}
	res := s.Close([]byte("azabababab"))
	if !res.IsEmpty() {
		t.Fatal("dead stream must produce the empty result")
	}
	if string(res.Document()) != "azabababab" {
		t.Fatalf("Document() = %q", res.Document())
	}
}

func TestScratchReuse(t *testing.T) {
	d := pipeline(t, gen.Figure1Pattern())
	sc := &core.Scratch{}
	docs := [][]byte{
		gen.Figure1Doc(),
		gen.Contacts(5, 1),
		nil,
		gen.Contacts(40, 2),
		[]byte("no matches here"),
		gen.Figure1Doc(),
	}
	for i, doc := range docs {
		want := core.Evaluate(d, doc).Collect()
		got := core.EvaluateScratch(d, doc, sc).Collect()
		if !got.Equal(want) {
			t.Fatalf("doc %d: scratch reuse disagrees:\n%v", i, want.Diff(got, 10))
		}
	}
}

func TestScratchReuseStopsAllocating(t *testing.T) {
	// After the arena reaches its high-water mark, evaluating the same
	// document through the scratch must reuse its cells.
	d := pipeline(t, gen.Figure1Pattern())
	doc := gen.Contacts(200, 9)
	sc := &core.Scratch{}
	core.EvaluateScratch(d, doc, sc) // warm the arena
	allocs := testing.AllocsPerRun(20, func() {
		res := core.EvaluateScratch(d, doc, sc)
		if res.IsEmpty() {
			t.Fatal("expected matches")
		}
	})
	// A handful of fixed-size allocations (Stream, Result headers) remain;
	// the point is that the arena's regrowths do not.
	if allocs > 10 {
		t.Fatalf("scratch reuse still allocates %.0f objects per evaluation", allocs)
	}
}

// TestCountStreamMatchesCount checks that chunk boundaries never change
// the (count, exact) outcome: randomly chunked streams agree with the
// whole-document pass. TestCountStreamExactnessIsOneWay covers the
// overflow regime.
func TestCountStreamMatchesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, pattern := range []string{gen.Figure1Pattern(), gen.NestedPattern(2)} {
		d := pipeline(t, pattern)
		for _, doc := range [][]byte{nil, gen.Figure1Doc(), gen.Contacts(30, 4)} {
			wantN, wantExact := core.CountDoc(d, doc)
			for trial := 0; trial < 5; trial++ {
				s := core.NewCountStream(d)
				for _, c := range chunks(doc, rng) {
					s.Feed(c)
				}
				gotN, gotExact := s.Count()
				if gotN != wantN || gotExact != wantExact {
					t.Fatalf("pattern %q doc %q: CountStream = (%d, %v), want (%d, %v)",
						pattern, doc, gotN, gotExact, wantN, wantExact)
				}
				if big := s.CountBig(); big.Uint64() != wantN {
					t.Fatalf("CountBig = %v, want %d", big, wantN)
				}
			}
		}
	}
}

// TestCountStreamExactnessIsOneWay pins the overflow-then-die case: a
// branch whose per-state counts overflow uint64 mid-document but whose runs
// all die before accepting. The stream migrates to big integers at the
// overflow and still knows the true total (here 1, from the other branch),
// so it reports the exact count; so does the facade Count, which runs the
// same pass. Exactness depends only on |⟦A⟧d|, never on the intermediate
// counts.
func TestCountStreamExactnessIsOneWay(t *testing.T) {
	// (a*!x1{a*...!x12{a*}...a*})|(a*b) over a^60 b: the nested branch
	// overflows during the a's (cf. TestCountStreamOverflowMigration), then
	// dies at the b; the a*b branch contributes the single empty mapping.
	var b strings.Builder
	b.WriteString("(")
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&b, "a*!x%d{", i)
	}
	b.WriteString("a*")
	for i := 1; i <= 12; i++ {
		b.WriteString("}a*")
	}
	b.WriteString(")|(a*b)")
	d := pipeline(t, b.String())
	prefix := bytes.Repeat([]byte("a"), 60)
	doc := append(prefix, 'b')

	if _, exact := core.CountDoc(d, prefix); exact {
		t.Fatal("the a^60 prefix counts exactly: the construction no longer overflows, the test is vacuous")
	}
	if want := core.CountDocBig(d, doc); want.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("CountBig = %v, want 1; the construction no longer overflows-and-dies", want)
	}

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5; trial++ {
		s := core.NewCountStream(d)
		for _, c := range chunks(doc, rng) {
			s.Feed(c)
		}
		gotN, gotExact := s.Count()
		if !gotExact || gotN != 1 {
			t.Fatalf("trial %d: CountStream = (%d, %v), want (1, true)", trial, gotN, gotExact)
		}
	}
	if n, exact := spanner.MustCompile(b.String()).Count(doc); !exact || n != 1 {
		t.Fatalf("Spanner.Count = (%d, %v), want (1, true)", n, exact)
	}
}

func TestCountStreamOverflowMigration(t *testing.T) {
	// 12 nested variables over 60 bytes overflows uint64 mid-stream; the
	// hybrid counter must migrate to big integers and stay exact. The
	// mappings are the chains x1 ⊇ … ⊇ x12 of spans over a^60: 24 boundary
	// positions chosen with repetition from 61, C(84, 24) in all.
	node := rgx.MustParse(gen.NestedPattern(12))
	v, err := rgx.Compile(node)
	if err != nil {
		t.Fatal(err)
	}
	d := v.ToExtended().Determinize()
	doc := gen.RandomDoc(60, "a", 1)
	want := new(big.Int).Binomial(84, 24)
	if got := core.CountDocBig(d, doc); got.Cmp(want) != 0 {
		t.Fatalf("whole-document CountBig = %v, want C(84, 24) = %v", got, want)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		s := core.NewCountStream(d)
		for _, c := range chunks(doc, rng) {
			s.Feed(c)
		}
		if _, exact := s.Count(); exact {
			t.Fatal("expected uint64 overflow")
		}
		if got := s.CountBig(); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: CountBig = %v, want %v", trial, got, want)
		}
	}
}

// TestDAGSurvivesArenaGrowth drives the arena through several doublings in
// the middle of a pass: a scratch warmed on a tiny document sits at the
// floor capacity, and NestedPattern(2) over 16 KiB of DenseMarkers creates
// ~10 cells per byte. Cells are addressed by index, so regrowth must leave
// the DAG exactly as a fresh whole-document pass builds it. The full
// output (~10^15 mappings) is out of reach, so the enumeration is checked
// on a prefix, and Collect against the oracle on a small document served
// by the grown scratch. The last run repeats the chunk-7 one with a memo
// that flushes on every round.
func TestDAGSurvivesArenaGrowth(t *testing.T) {
	const (
		prefix  = 2000 // outputs compared in order
		checked = 200  // of which re-checked by forced simulation
	)
	d := pipeline(t, gen.NestedPattern(2))
	doc := gen.DenseMarkers(16<<10, 5)
	want := core.Evaluate(d, doc)
	if n := core.NodeCount(want); n < 1<<16 {
		t.Fatalf("%d DAG nodes: too few to force several regrowths", n)
	}
	var wantOut []*model.Mapping
	for it := want.Iterator(); len(wantOut) < prefix; {
		m, ok := it.Next()
		if !ok {
			t.Fatalf("only %d outputs", len(wantOut))
		}
		wantOut = append(wantOut, m.Clone())
	}

	for _, run := range []struct {
		chunk int
		flush bool
	}{{1, false}, {7, false}, {7, true}} {
		chunk := run.chunk
		if run.flush {
			// A memo that flushes on every round rebuilds each program from
			// the configuration in progress.
			defer core.SetMemoBudget(0)()
		}
		sc := &core.Scratch{}
		core.EvaluateScratch(d, gen.DenseMarkers(8, 1), sc)
		s := core.NewStream(d, sc)
		for off := 0; off < len(doc); off += chunk {
			s.Feed(doc[off:min(off+chunk, len(doc))])
		}
		got := s.Close(doc)
		if !core.SameDAG(got, want) {
			t.Fatalf("chunk %d: the regrown arena differs from a fresh pass's", chunk)
		}
		// Two iterators interleaved over the same Result stay independent.
		it1, it2 := got.Iterator(), got.Iterator()
		for k, w := range wantOut {
			m1, ok1 := it1.Next()
			m2, ok2 := it2.Next()
			if !ok1 || !ok2 {
				t.Fatalf("chunk %d: enumeration ended at output %d", chunk, k)
			}
			if !m1.Equal(w) || !m2.Equal(w) {
				t.Fatalf("chunk %d output %d: got %v and %v, want %v", chunk, k, m1, m2, w)
			}
			if k < checked && !oracle.Matches(d, doc, m1) {
				t.Fatalf("chunk %d output %d: %v is not in ⟦A⟧d", chunk, k, m1)
			}
		}
		small := gen.DenseMarkers(10, int64(chunk))
		if got, want := core.EvaluateScratch(d, small, sc).Collect(), oracle.Enumerate(d, small); !got.Equal(want) {
			t.Fatalf("chunk %d: grown scratch on a small document:\n%v", chunk, want.Diff(got, 10))
		}
	}
}

// TestAccelFallbackIgnoresChunking feeds one document to Stream and
// CountStream in chunks of one byte, of 4 KiB and whole. The density
// fallback measures the document, not its Feed boundaries: a ~41 KB
// contacts document is too dense for the Figure-1 prefilter, so every
// chunking must fall back, as the whole document does.
func TestAccelFallbackIgnoresChunking(t *testing.T) {
	a := compileDense(t, gen.Figure1Pattern())
	doc := gen.Contacts(2000, 7)
	feed := func(f func([]byte), size int) {
		for i := 0; i < len(doc); i += size {
			f(doc[i:min(i+size, len(doc))])
		}
	}
	for _, size := range []int{1, 4096, len(doc)} {
		s := core.NewStream(a, nil)
		feed(s.Feed, size)
		s.Close(doc)
		cs := core.NewCountStream(a)
		feed(cs.Feed, size)
		if !s.AccelFellBack() || !cs.AccelFellBack() {
			t.Errorf("%d-byte chunks of a %d-byte contacts document: Stream fell back %v after skipping %d bytes, CountStream %v after %d; want both to fall back",
				size, len(doc), s.AccelFellBack(), s.AccelSkippedBytes(), cs.AccelFellBack(), cs.AccelSkippedBytes())
		}
	}
}
