package spanner_test

// Tests for the context-aware evaluation entry points: Background-context
// calls are byte-identical to the plain variants, and cancellation is
// observed at every stage — before the pass, between preprocessing chunks,
// between reader chunks, and during enumeration.

import (
	"context"
	"errors"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"spanners/internal/gen"
	"spanners/spanner"
)

// cancelAfterErrs is a context whose Err flips to Canceled after n calls —
// a deterministic way to cancel mid-pass, independent of wall-clock
// timing. Done is never closed, so only the Err-polling paths observe it.
type cancelAfterErrs struct {
	context.Context
	n atomic.Int64
}

func newCancelAfterErrs(n int64) *cancelAfterErrs {
	c := &cancelAfterErrs{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *cancelAfterErrs) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestContextVariantsMatchPlain(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []spanner.Option{spanner.WithStrict(), spanner.WithLazy()} {
		s := spanner.MustCompile(gen.Figure1Pattern(), mode)
		doc := gen.Contacts(50, 3)

		var plain, viaCtx []string
		s.Enumerate(doc, func(m *spanner.Match) bool { plain = append(plain, m.Key()); return true })
		if err := s.EnumerateContext(ctx, doc, func(m *spanner.Match) bool {
			viaCtx = append(viaCtx, m.Key())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(plain, viaCtx) {
			t.Fatalf("EnumerateContext diverges: %d vs %d matches", len(viaCtx), len(plain))
		}

		wantN, wantExact := s.Count(doc)
		n, exact, err := s.CountContext(ctx, doc)
		if err != nil || n != wantN || exact != wantExact {
			t.Fatalf("CountContext = (%d, %v, %v), want (%d, %v, nil)", n, exact, err, wantN, wantExact)
		}
		big, err := s.CountBigContext(ctx, doc)
		if err != nil || !big.IsUint64() || big.Uint64() != wantN {
			t.Fatalf("CountBigContext = (%v, %v), want %d", big, err, wantN)
		}

		viaCtx = nil
		if err := s.EnumerateReaderContext(ctx, strings.NewReader(string(doc)), func(m *spanner.Match) bool {
			viaCtx = append(viaCtx, m.Key())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(plain, viaCtx) {
			t.Fatal("EnumerateReaderContext diverges from Enumerate")
		}
		rn, rexact, err := s.CountReaderContext(ctx, strings.NewReader(string(doc)))
		if err != nil || rn != wantN || rexact != wantExact {
			t.Fatalf("CountReaderContext = (%d, %v, %v)", rn, rexact, err)
		}
		rb, err := s.CountBigReaderContext(ctx, strings.NewReader(string(doc)))
		if err != nil || !rb.IsUint64() || rb.Uint64() != wantN {
			t.Fatalf("CountBigReaderContext = (%v, %v)", rb, err)
		}

		ev, err := s.PreprocessContext(ctx, doc)
		if err != nil {
			t.Fatal(err)
		}
		viaCtx = nil
		ev.Enumerate(func(m *spanner.Match) bool { viaCtx = append(viaCtx, m.Key()); return true })
		ev.Release()
		if !slices.Equal(plain, viaCtx) {
			t.Fatal("PreprocessContext evaluation diverges")
		}
	}
}

// TestPlainEntryPointsMultiChunk pins the plain entry points on a document
// spanning several 64 KiB scan chunks, in both modes: each runs the
// chunked Context path with context.Background(), so every one must yield
// exactly EnumerateContext's matches, and as many of them as Count
// reports.
func TestPlainEntryPointsMultiChunk(t *testing.T) {
	doc := gen.Contacts(8000, 11)
	if len(doc) <= 2*(64<<10) {
		t.Fatalf("document too small for the chunk test: %d bytes", len(doc))
	}
	for _, mode := range []spanner.Option{spanner.WithStrict(), spanner.WithLazy()} {
		s := spanner.MustCompile(gen.Figure1Pattern(), mode)
		var want []string
		if err := s.EnumerateContext(context.Background(), doc, func(m *spanner.Match) bool {
			want = append(want, m.Key())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n, exact := s.Count(doc); !exact || n != uint64(len(want)) {
			t.Fatalf("%s: Count = (%d, %v), EnumerateContext yielded %d", s.Mode(), n, exact, len(want))
		}
		if len(want) == 0 {
			t.Fatalf("%s: no matches; the test would be vacuous", s.Mode())
		}

		got := map[string][]string{}
		collect := func(name string) func(*spanner.Match) bool {
			return func(m *spanner.Match) bool {
				got[name] = append(got[name], m.Key())
				return true
			}
		}
		s.Enumerate(doc, collect("Enumerate"))
		for m := range s.All(doc) {
			got["All"] = append(got["All"], m.Key())
		}
		it := s.Iterator(doc)
		for m, ok := it.Next(); ok; m, ok = it.Next() {
			got["Iterator"] = append(got["Iterator"], m.Key())
		}
		ev := s.Preprocess(doc)
		ev.Enumerate(collect("Preprocess"))
		ev.Release()
		if err := s.EnumerateReader(strings.NewReader(string(doc)), collect("EnumerateReader")); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"Enumerate", "All", "Iterator", "Preprocess", "EnumerateReader"} {
			if !slices.Equal(got[name], want) {
				t.Fatalf("%s: %s yields %d matches diverging from EnumerateContext's %d",
					s.Mode(), name, len(got[name]), len(want))
			}
		}
	}
}

func TestContextPreCancelled(t *testing.T) {
	s := spanner.MustCompile(`(a|b)*!x{a+}(a|b)*`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	doc := []byte("abab")

	if err := s.EnumerateContext(ctx, doc, func(*spanner.Match) bool {
		t.Fatal("yield after cancellation")
		return false
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnumerateContext err = %v, want Canceled", err)
	}
	if _, _, err := s.CountContext(ctx, doc); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountContext err = %v", err)
	}
	if _, err := s.CountBigContext(ctx, doc); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountBigContext err = %v", err)
	}
	ev, err := s.PreprocessContext(ctx, doc)
	if ev != nil {
		// Contract violation — but don't leak the evaluation it returned.
		ev.Release()
	}
	if !errors.Is(err, context.Canceled) || ev != nil {
		t.Fatalf("PreprocessContext = (%v, %v), want (nil, Canceled)", ev, err)
	}
	if err := s.EnumerateReaderContext(ctx, strings.NewReader("abab"), func(*spanner.Match) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("EnumerateReaderContext err = %v", err)
	}
	if _, _, err := s.CountReaderContext(ctx, strings.NewReader("abab")); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountReaderContext err = %v", err)
	}
}

// TestContextCancelMidPreprocess cancels between 64 KiB chunks of a large
// document: the pass must abort without completing, deterministically via
// the Err-counting context.
func TestContextCancelMidPreprocess(t *testing.T) {
	s := spanner.MustCompile(gen.Figure1Pattern())
	doc := gen.Contacts(12000, 5) // several 64 KiB chunks
	if len(doc) < 3*(64<<10) {
		t.Fatalf("document too small for the chunk test: %d bytes", len(doc))
	}
	ctx := newCancelAfterErrs(2) // first chunk passes, second check cancels
	err := s.EnumerateContext(ctx, doc, func(*spanner.Match) bool {
		t.Fatal("yield after mid-pass cancellation")
		return false
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if _, _, err := s.CountContext(newCancelAfterErrs(2), doc); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountContext err = %v, want Canceled", err)
	}
}

// TestContextCancelDuringEnumeration cancels once the preprocessing pass is
// over: the enumeration checks the context every few hundred matches and
// must stop early with the context's error.
func TestContextCancelDuringEnumeration(t *testing.T) {
	s := spanner.MustCompile(`.*!x{a+}.*`) // Θ(n²) matches
	doc := []byte(strings.Repeat("a", 200))
	total, exact := s.Count(doc)
	if !exact || total < 5000 {
		t.Fatalf("workload too small: %d matches", total)
	}
	// Budget enough checks to survive preprocessing (a handful of chunks)
	// and the first enumeration check, then cancel.
	ctx := newCancelAfterErrs(3)
	yields := 0
	err := s.EnumerateContext(ctx, doc, func(*spanner.Match) bool {
		yields++
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if yields == 0 || uint64(yields) >= total {
		t.Fatalf("cancellation stopped after %d of %d yields; want a strict prefix", yields, total)
	}
}

// TestContextCancelBetweenReads cancels the reader-based pass between
// chunk reads.
func TestContextCancelBetweenReads(t *testing.T) {
	s := spanner.MustCompile(`(a|b)*!x{a+}(a|b)*`)
	ctx, cancel := context.WithCancel(context.Background())
	reads := 0
	r := readerFunc(func(p []byte) (int, error) {
		if reads++; reads == 2 {
			cancel() // observed before the next Read
		}
		p[0] = 'a'
		return 1, nil // never EOF: only cancellation can end the pass
	})
	err := s.EnumerateReaderContext(ctx, r, func(*spanner.Match) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if reads != 2 {
		t.Fatalf("pass read %d chunks after cancellation, want 2", reads)
	}
	if _, err := s.CountBigReaderContext(context.Background(), io.LimitReader(infiniteAs{}, 1<<16)); err != nil {
		t.Fatalf("bounded reader must still count: %v", err)
	}
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// infiniteAs yields 'a' forever.
type infiniteAs struct{}

func (infiniteAs) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}
