package core_test

import (
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

// allocDocs are the two document shapes the hot path has to stay
// allocation-free on: a dense document with matches throughout (the
// per-byte Capturing/Reading loop does all the work) and a long sparse
// document with no match at all (the skips over inert bytes do).
func allocDocs() map[string][]byte {
	return map[string][]byte{
		"dense": gen.Contacts(40, 7),
		// No uppercase letters, so Figure1Pattern's name recognizer never
		// opens: the pass is pure scanning through the accel gate.
		"sparse": gen.RandomDoc(1<<14, "xyz .@-", 9),
	}
}

func TestEvaluateScratchZeroAlloc(t *testing.T) {
	comp := compileDense(t, gen.Figure1Pattern())
	for name, doc := range allocDocs() {
		t.Run(name, func(t *testing.T) {
			sc := &core.Scratch{}
			// Warm the scratch: the arena and per-state tables grow to
			// steady state on the first passes and are recycled afterwards.
			for i := 0; i < 3; i++ {
				core.EvaluateScratch(comp, doc, sc)
			}
			if name == "dense" && core.EvaluateScratch(comp, doc, sc).IsEmpty() {
				t.Fatal("dense document should produce matches")
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
	comp := compileDense(t, gen.Figure1Pattern())
	for name, doc := range allocDocs() {
		t.Run(name, func(t *testing.T) {
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
	comp := compileDense(t, gen.Figure1Pattern())
	for name, doc := range allocDocs() {
		t.Run(name, func(t *testing.T) {
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
