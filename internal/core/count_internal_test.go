package core

// White-box regression tests for the counting layer: the inexact-count
// contract (both CountStream paths return the low 64 bits of the true
// total), migration from wrapped-to-zero counts, and the early exit once
// the live state set drains. They drive the counters through a small
// hand-built Automaton so the scenarios — counts that wrap exactly to
// zero, totals that overflow only in the final summation — are reachable
// deterministically.

import (
	"math/big"
	"testing"

	"spanners/internal/model"
)

// fakeAutomaton is a minimal deterministic Automaton for counter tests:
// per-state capture edges, per-state single-byte letter edges, and a Step
// call counter for the early-exit assertions.
type fakeAutomaton struct {
	reg      *model.Registry
	initial  int
	final    []bool
	captures [][]model.Capture
	letters  []map[byte]int
	steps    int
}

func (f *fakeAutomaton) Initial() int                   { return f.initial }
func (f *fakeAutomaton) Accepting(q int) bool           { return f.final[q] }
func (f *fakeAutomaton) Captures(q int) []model.Capture { return f.captures[q] }
func (f *fakeAutomaton) Registry() *model.Registry      { return f.reg }
func (f *fakeAutomaton) Step(q int, c byte) (int, bool) {
	f.steps++
	to, ok := f.letters[q][c]
	return to, ok
}

// doublerAutomaton counts 2^n runs after n a's: state 0 fans out through
// two capture edges to states 1 and 2, which both step back to 0, so the
// run count at 0 doubles per byte. A third capture edge accumulates into
// the self-looping state 3. All four states are final, which makes the
// final total 5·2^n − 1: with n = 63 the per-state counts all fit uint64
// but the final summation wraps, and with larger n the per-state counts
// themselves overflow mid-document.
func doublerAutomaton() *fakeAutomaton {
	reg := model.NewRegistryOf("x", "y")
	x, _ := reg.Lookup("x")
	y, _ := reg.Lookup("y")
	return &fakeAutomaton{
		reg:   reg,
		final: []bool{true, true, true, true},
		captures: [][]model.Capture{
			{
				{S: model.SetOf(model.Open(x)), To: 1},
				{S: model.SetOf(model.Open(x), model.CloseOf(x)), To: 2},
				{S: model.SetOf(model.Open(y)), To: 3},
			},
			nil, nil, nil,
		},
		letters: []map[byte]int{
			nil,
			{'a': 0},
			{'a': 0},
			{'a': 3},
		},
	}
}

func repeatA(n int) []byte {
	doc := make([]byte, n)
	for i := range doc {
		doc[i] = 'a'
	}
	return doc
}

// TestInexactCountIsLow64Bits pins the counting contract: whenever exact
// is false, the returned count is the true total reduced modulo 2^64 — on
// the never-migrated uint64 path (per-state counts fit, only the final
// summation wraps) and on the big-integer path after migration alike. The
// doubler's closed-form total 5·2^n − 1 is the reference.
func TestInexactCountIsLow64Bits(t *testing.T) {
	doublerTotal := func(n uint) *big.Int {
		return new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(5), n), big.NewInt(1))
	}

	t.Run("uint64 path", func(t *testing.T) {
		total := doublerTotal(63) // > 2^64, every per-state count fits
		s := NewCountStream(doublerAutomaton())
		s.Feed(repeatA(63))
		if s.big != nil {
			t.Fatal("stream migrated: per-state counts were meant to fit uint64")
		}
		if got, exact := s.Count(); exact || got != low64(total) {
			t.Fatalf("CountStream.Count = (%d, %v), want (%d, false)", got, exact, low64(total))
		}
		if got := s.CountBig(); got.Cmp(total) != 0 {
			t.Fatalf("CountBig = %v, want 5·2^63 − 1 = %v", got, total)
		}
	})

	t.Run("migrated path", func(t *testing.T) {
		total := doublerTotal(70) // per-state counts wrap mid-document
		if low64(total) == 0 {
			t.Fatal("low 64 bits are zero: the case cannot distinguish the old (0, false) contract")
		}
		doc := repeatA(70)
		s := NewCountStream(doublerAutomaton())
		s.Feed(doc[:40])
		s.Feed(doc[40:])
		if s.big == nil {
			t.Fatal("stream did not migrate: the construction no longer overflows")
		}
		if got, exact := s.Count(); exact || got != low64(total) {
			t.Fatalf("CountStream.Count = (%d, %v), want (%d, false)", got, exact, low64(total))
		}
		if got := s.CountBig(); got.Cmp(total) != 0 {
			t.Fatalf("CountBig = %v, want 5·2^70 − 1 = %v", got, total)
		}
	})
}

// seed makes states, in slot order, the live configuration of s, carrying
// counts: the state a round leaves behind.
func seed(s *CountStream, states []int, counts []uint64) {
	s.cur = s.m.intern(states)
	s.counts = append(s.counts[:0], counts...)
}

// migrateFrom switches s to big arithmetic as if the uint64 round that
// started with states live, carrying counts, had just overflowed.
func migrateFrom(s *CountStream, states []int, counts []uint64) {
	seed(s, states, counts)
	s.migrate()
}

// liveTotal sums the counts of the accepting live states, without the
// final Capturing.
func liveTotal(s *CountStream) *big.Int {
	total := new(big.Int)
	for k, q := range s.m.tuple(s.cur) {
		if !s.m.a.Accepting(q) {
			continue
		}
		if s.big != nil {
			total.Add(total, s.big[k])
		} else {
			total.Add(total, new(big.Int).SetUint64(s.counts[k]))
		}
	}
	return total
}

// TestMigrateMaterializesZeroLiveCounts is the migrate → replay
// regression: a round can in principle start from a live state whose
// uint64 count is zero (a sum that wrapped to exactly 2^64). migrate must
// give such a state a big count of zero, and the big rounds must go on
// from it exactly.
func TestMigrateMaterializesZeroLiveCounts(t *testing.T) {
	a := doublerAutomaton()
	s := NewCountStream(a)
	// Migrate from a hostile configuration directly: state 0 live with a
	// wrapped-to-zero count, state 3 live with a real count.
	migrateFrom(s, []int{0, 3}, []uint64{0, 7})
	if live := s.m.tuple(s.cur); len(s.big) != len(live) {
		t.Fatalf("migrate gave %d counts to %d live states", len(s.big), len(live))
	}
	for k, q := range s.m.tuple(s.cur) {
		if s.big[k] == nil {
			t.Fatalf("migrate left live state %d with a nil count", q)
		}
	}
	s.Feed([]byte{'a'})
	if got := liveTotal(s); !got.IsUint64() {
		t.Fatalf("total = %v, want a small exact value", got)
	}
}

// TestNoDuplicateLiveOnZeroCounts pins liveness bookkeeping against
// wrapped-to-zero counts: a capture into a state that is already live with
// a zero count must not give it a second slot — a duplicate would make
// the total double-count in both modes.
func TestNoDuplicateLiveOnZeroCounts(t *testing.T) {
	a := doublerAutomaton()
	// Hostile configuration: state 1 live with a wrapped-to-zero count;
	// state 0 live with a real count, whose capture edges target 1 again.
	states, counts := []int{0, 1}, []uint64{3, 0}

	for _, inBig := range []bool{true, false} {
		name := map[bool]string{true: "big", false: "uint64"}[inBig]
		t.Run(name, func(t *testing.T) {
			start := func() *CountStream {
				s := NewCountStream(a)
				if inBig {
					migrateFrom(s, states, counts)
				} else {
					seed(s, states, counts)
				}
				if n := len(s.m.tuple(s.cur)); n != 2 {
					t.Fatalf("seeded %d live entries, want 2", n)
				}
				return s
			}
			// The final Capturing: capture 0→1 must not give state 1 a
			// second slot. All four (final) states carry 3 runs; a
			// duplicate would sum 15.
			s := start()
			if got := s.CountBig(); !got.IsUint64() || got.Uint64() != 12 {
				t.Fatalf("total after capturing = %v, want 12 (duplicates double-count)", got)
			}
			// A round over 'a': 6 runs step to state 0 (via 1 and 2), 3
			// stay on the 3→3 loop.
			s = start()
			s.Feed([]byte{'a'})
			assertNoDuplicates(t, s.m.tuple(s.cur))
			if got := liveTotal(s); !got.IsUint64() || got.Uint64() != 9 {
				t.Fatalf("total after reading = %v, want 9", got)
			}
			if (s.big != nil) != inBig {
				t.Fatalf("big mode = %v after the round, want %v", s.big != nil, inBig)
			}
		})
	}
}

// TestInitialStateCaptureSelfLoop pins the configuration seeding: the
// initial state must hold its slot from the start, or a capture edge
// looping back into it opens a second slot for it during the very first
// Capturing and the total counts it twice.
func TestInitialStateCaptureSelfLoop(t *testing.T) {
	reg := model.NewRegistryOf("x")
	x, _ := reg.Lookup("x")
	a := &fakeAutomaton{
		reg:   reg,
		final: []bool{true},
		captures: [][]model.Capture{
			{{S: model.SetOf(model.Open(x), model.CloseOf(x)), To: 0}},
		},
		letters: []map[byte]int{nil},
	}
	// On the empty document: the empty mapping plus x = [1,1⟩ — exactly 2.
	s := NewCountStream(a)
	if got, exact := s.Count(); !exact || got != 2 {
		t.Fatalf("CountStream.Count = (%d, %v), want (2, true)", got, exact)
	}
	if got := s.CountBig(); !got.IsUint64() || got.Uint64() != 2 {
		t.Fatalf("CountBig = %v, want 2", got)
	}
}

func assertNoDuplicates(t *testing.T, live []int) {
	t.Helper()
	seen := make(map[int]bool)
	for _, q := range live {
		if seen[q] {
			t.Fatalf("state %d appears twice in the live list %v", q, live)
		}
		seen[q] = true
	}
}

// deadEndAutomaton accepts a* and dies on the first non-a byte.
func deadEndAutomaton() *fakeAutomaton {
	return &fakeAutomaton{
		reg:      model.NewRegistry(),
		final:    []bool{true},
		captures: [][]model.Capture{nil},
		letters:  []map[byte]int{{'a': 0}},
	}
}

// TestCountEarlyExitOnDeadPrefix checks that the counting pass stops
// doing per-byte work once the live set drains — the number of Step calls
// must be proportional to where the automaton dies, not to |doc| — and
// that Dead flips exactly then, on the uint64 and the migrated path.
func TestCountEarlyExitOnDeadPrefix(t *testing.T) {
	doc := append(repeatA(10), make([]byte, 100000)...) // dies at byte 11
	const maxSteps = 20                                 // 11 live bytes, one state each

	a := deadEndAutomaton()
	s := NewCountStream(a)
	for i := 0; i < len(doc); i += 1000 {
		s.Feed(doc[i:min(i+1000, len(doc))])
	}
	if n, exact := s.Count(); !exact || n != 0 {
		t.Fatalf("CountStream.Count = (%d, %v), want (0, true)", n, exact)
	}
	if a.steps > maxSteps {
		t.Fatalf("CountStream made %d Step calls on a document dead after byte 11", a.steps)
	}

	// Byte by byte, Dead stays false while a run survives and flips on the
	// killing byte.
	s = NewCountStream(deadEndAutomaton())
	for i, c := range doc[:11] {
		if s.Dead() {
			t.Fatalf("uint64 stream Dead before byte %d, with a live run", i)
		}
		s.Feed([]byte{c})
	}
	if !s.Dead() {
		t.Fatal("uint64 stream not Dead after the killing byte")
	}

	// The migrated counter early-exits too: force-migrate a live stream,
	// then feed a killing byte followed by dead input.
	a = deadEndAutomaton()
	s = NewCountStream(a)
	s.Feed(repeatA(3))
	migrateFrom(s, []int{0}, []uint64{s.counts[0]})
	if s.Dead() {
		t.Fatal("migrated stream Dead with a live run")
	}
	s.Feed([]byte{'a'})
	if s.Dead() {
		t.Fatal("migrated stream Dead after a surviving byte")
	}
	a.steps = 0
	s.Feed([]byte{'b'})
	if !s.Dead() {
		t.Fatal("migrated stream not Dead after the killing byte")
	}
	s.Feed(repeatA(50000))
	if a.steps > maxSteps {
		t.Fatalf("migrated CountStream made %d Step calls after death", a.steps)
	}
	if n, exact := s.Count(); !exact || n != 0 {
		t.Fatalf("dead migrated stream Count = (%d, %v), want (0, true)", n, exact)
	}
}
