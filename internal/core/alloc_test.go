package core_test

import (
	"slices"
	"testing"

	"spanners/internal/core"
	"spanners/internal/eva"
	"spanners/internal/gen"
)

// These tests pin at runtime what the hotalloc analyzer (cmd/spanlint)
// proves statically: the functions annotated spanlint:hotpath are
// transitively allocation-free once their scratch state is warm. The two
// checks are deliberately redundant — the analyzer catches regressions at
// lint time with a source position, AllocsPerRun catches anything the
// static model cannot see (escape-analysis changes, runtime behavior).

// compileDense lowers a pattern through the canonical pipeline into the
// dense-dispatch form — the representation whose Step carries the
// spanlint:hotpath annotation.
func compileDense(t *testing.T, pattern string) *eva.Compiled {
	t.Helper()
	c, err := pipeline(t, pattern).CompileDense()
	if err != nil {
		t.Fatalf("CompileDense: %v", err)
	}
	return c
}

// An allocCase is a pattern and a document the hot path has to stay
// allocation-free on.
type allocCase struct {
	pattern string
	doc     []byte
}

// allocCases are the three shapes: a dense document with matches
// throughout (the per-byte Capturing/Reading loop does all the work), a
// long sparse document with no match at all (the skips over inert bytes
// do), and long inert runs that end at one of a few exit bytes (the
// skips search for those bytes with bytes.IndexByte).
func allocCases() map[string]allocCase {
	prose := gen.Repeat("plain prose, then more of it. ", 150)
	return map[string]allocCase{
		"dense": {gen.Figure1Pattern(), gen.Contacts(40, 7)},
		// No uppercase letters, so Figure1Pattern's name recognizer never
		// opens: the pass is pure scanning through the accel gate.
		"sparse": {gen.Figure1Pattern(), gen.RandomDoc(1<<14, "xyz .@-", 9)},
		// Only 'w' leaves the configuration before the capture, and the
		// prose has none but the one link's.
		"exitbytes": {`.*!h{www\.[a-z]+}.*`, slices.Concat(prose, []byte("see www.example.org. "), prose)},
	}
}

func TestEvaluateScratchZeroAlloc(t *testing.T) {
	for name, c := range allocCases() {
		t.Run(name, func(t *testing.T) {
			comp, doc := compileDense(t, c.pattern), c.doc
			sc := &core.Scratch{}
			// Warm the scratch: the arena and per-state tables grow to
			// steady state on the first passes and are recycled afterwards.
			for i := 0; i < 3; i++ {
				core.EvaluateScratch(comp, doc, sc)
			}
			if name != "sparse" && core.EvaluateScratch(comp, doc, sc).IsEmpty() {
				t.Fatalf("%s document should produce matches", name)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if core.EvaluateScratch(comp, doc, sc) == nil {
					t.Fatal("nil result")
				}
			})
			if allocs != 0 {
				t.Errorf("EvaluateScratch with a warm scratch: %v allocs/run, want 0", allocs)
			}
		})
	}
}

func TestStreamZeroAlloc(t *testing.T) {
	for name, c := range allocCases() {
		t.Run(name, func(t *testing.T) {
			comp, doc := compileDense(t, c.pattern), c.doc
			sc := &core.Scratch{}
			run := func() {
				s := core.NewStream(comp, sc)
				s.Feed(doc[:len(doc)/2])
				s.Feed(doc[len(doc)/2:])
				if s.Close(doc) == nil {
					t.Fatal("nil result")
				}
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Errorf("NewStream/Feed/Close with a warm scratch: %v allocs/run, want 0", allocs)
			}
		})
	}
}

func TestCountStreamFeedZeroAlloc(t *testing.T) {
	for name, c := range allocCases() {
		t.Run(name, func(t *testing.T) {
			comp, doc := compileDense(t, c.pattern), c.doc
			s := core.NewCountStream(comp)
			// Warm: the counter's per-state tables reach steady state on
			// the first chunks (the automaton cannot mint new states).
			s.Feed(doc)
			s.Feed(doc)
			if allocs := testing.AllocsPerRun(50, func() { s.Feed(doc) }); allocs != 0 {
				t.Errorf("CountStream.Feed on the uint64 path: %v allocs/run, want 0", allocs)
			}
		})
	}
}
