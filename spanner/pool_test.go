package spanner_test

// Tests for the package-level scratch pool: every Spanner draws its
// per-document evaluation state from one pool, so a scratch last used by
// one automaton is routinely handed to another of a different size and
// mode. Results must not notice, and a never-evaluated spanner must start
// on a recycled arena instead of allocating its own.

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// poolPatterns have different state counts and variable sets, so scratch
// handed between them changes table sizes, live sets and registries.
var poolPatterns = []string{
	`.*!x{a+}.*`,
	`.*!u{[a-z]+}@!h{[a-z]+(\.[a-z]+)+}.*`,
	`(.*!w{b[ab]*a}.*)|(.*!v{[0-9]+-[0-9]+}.*)`,
}

func TestScratchSharedAcrossSpanners(t *testing.T) {
	docs := [][]byte{
		[]byte("aab@cd.ef"),
		[]byte("ba 12-34 aaa"),
		[]byte("x@y.z bba 5-6"),
		[]byte(""),
	}
	type subject struct {
		label string
		s     *spanner.Spanner
		want  map[string][]string // doc → oracle keys, 1-based
	}
	var subjects []subject
	for _, p := range poolPatterns {
		want := make(map[string][]string)
		for _, doc := range docs {
			want[string(doc)] = oracleSet(t, p, doc).Keys()
		}
		for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
			s := spanner.MustCompile(p, spanner.WithMode(mode))
			subjects = append(subjects, subject{fmt.Sprintf("%s (%s)", p, mode), s, want})
		}
	}
	check := func(round int, sub subject, doc []byte, enumerate func(yield func(*spanner.Match) bool)) {
		t.Helper()
		var got []string
		enumerate(func(m *spanner.Match) bool {
			got = append(got, shiftKeyTo1Based(t, m.Key()))
			return true
		})
		sort.Strings(got)
		if want := sub.want[string(doc)]; !slices.Equal(got, want) {
			t.Fatalf("round %d, %s on %q:\ngot  %v\nwant %v", round, sub.label, doc, got, want)
		}
	}

	for round := 0; round < 3*len(subjects); round++ {
		// Hold one deferred evaluation per spanner open at once, each
		// preprocessing a different document, so every scratch in flight
		// last served some other automaton.
		evs := make([]*spanner.Evaluation, len(subjects))
		for i := range subjects {
			k := (round + i) % len(subjects)
			evs[k] = subjects[k].s.Preprocess(docs[(round+k)%len(docs)])
		}
		// Interleave one-shot entry points, which take and return a
		// scratch while the deferred ones are still held.
		for i, sub := range subjects {
			doc := docs[(round+i+1)%len(docs)]
			check(round, sub, doc, func(y func(*spanner.Match) bool) { sub.s.Enumerate(doc, y) })
			check(round, sub, doc, func(y func(*spanner.Match) bool) {
				if err := sub.s.EnumerateReader(bytes.NewReader(doc), y); err != nil {
					t.Fatal(err)
				}
			})
			if n, exact := sub.s.Count(doc); !exact || n != uint64(len(sub.want[string(doc)])) {
				t.Fatalf("round %d, %s on %q: Count = (%d, %v), want %d", round, sub.label, doc, n, exact, len(sub.want[string(doc)]))
			}
		}
		// Drain and release in an order that differs from acquisition.
		for i := len(subjects) - 1; i >= 0; i-- {
			k := (round*7 + i) % len(subjects)
			check(round, subjects[k], docs[(round+k)%len(docs)], evs[k].Enumerate)
			evs[k].Release()
		}
	}
}

func TestFreshSpannerStartsOnPooledScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// A collection would move the pool to its victim cache and a second
	// one would empty it; keep the measurement about reuse alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const runs = 20
	doc := gen.Contacts(40, 5)
	pattern := gen.Figure1Pattern()
	fresh := make([]*spanner.Spanner, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		fresh[i] = spanner.MustCompile(pattern, spanner.WithStrict())
	}
	warm := spanner.MustCompile(pattern, spanner.WithStrict())
	for i := 0; i < 3; i++ {
		warm.Preprocess(doc).Release()
	}
	steady := testing.AllocsPerRun(runs, func() { warm.Preprocess(doc).Release() })

	next := 0
	first := testing.AllocsPerRun(runs, func() {
		fresh[next].Preprocess(doc).Release()
		next++
	})
	if first > steady {
		t.Errorf("first Preprocess+Release of a never-evaluated spanner: %v allocs, want at most the warm spanner's %v (no scratch, table or arena chunk of its own)", first, steady)
	}
}

// TestWarmCountAllocatesNothing pins the counting pass's fixed cost: once
// the pooled scratch has grown to the automaton, a spanner's Count and
// IsEmpty allocate nothing, in strict and in lazy mode.
func TestWarmCountAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	doc := gen.Contacts(40, 5)
	for _, mode := range []spanner.Mode{spanner.ModeStrict, spanner.ModeLazy} {
		s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithMode(mode))
		s.Count(doc)
		if n := testing.AllocsPerRun(20, func() { s.Count(doc); s.IsEmpty(doc) }); n != 0 {
			t.Errorf("%v: warm Count+IsEmpty made %v allocations, want 0", mode, n)
		}
	}
}

// TestWarmEnumerateAllocations pins the fixed cost of a warm strict
// Enumerate: the pass runs on the pooled scratch, and what remains per
// call is the iterator and its output buffers. The Match aliases the
// enumeration's own span table, so it carries none of its own.
func TestWarmEnumerateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const want = 5
	doc := gen.Contacts(100, 1)
	s := spanner.MustCompile(gen.Figure1Pattern(), spanner.WithStrict())
	matches := 0
	enumerate := func() { s.Enumerate(doc, func(*spanner.Match) bool { matches++; return true }) }
	enumerate()
	if matches == 0 {
		t.Fatal("expected matches")
	}
	if n := testing.AllocsPerRun(20, enumerate); n > want {
		t.Errorf("warm strict Enumerate made %v allocations, want at most %d", n, want)
	}
}
