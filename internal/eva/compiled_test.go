package eva_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spanners/internal/eva"
	"spanners/internal/gen"
	"spanners/internal/model"
	"spanners/internal/rgx"
)

func TestCompileDenseRejectsNondeterministic(t *testing.T) {
	reg := model.NewRegistry()
	a := eva.New(reg)
	q0 := a.AddState()
	q1 := a.AddState()
	a.SetInitial(q0)
	a.SetFinal(q1, true)
	a.AddByte(q0, 'a', q0)
	a.AddByte(q0, 'a', q1)
	if _, err := a.CompileDense(); err == nil {
		t.Fatal("overlapping byte classes must be rejected")
	}
}

// TestDisableAccelDisables checks that DisableAccel turns skipping off
// on both table kinds (core.Accelerator), and that it is on otherwise.
func TestDisableAccelDisables(t *testing.T) {
	c, err := gen.Figure3EVA().Compile()
	if err != nil {
		t.Fatal(err)
	}
	l := eva.NewLazy(gen.Figure3EVA())
	if !c.AccelEnabled() || !l.AccelEnabled() {
		t.Fatal("skipping must be on until DisableAccel")
	}
	c.DisableAccel()
	l.DisableAccel()
	if c.AccelEnabled() || l.AccelEnabled() {
		t.Fatal("DisableAccel must turn skipping off")
	}
}

func TestCompileDenseStepMatchesScan(t *testing.T) {
	a := gen.Figure3EVA()
	c, err := a.CompileDense()
	if err != nil {
		t.Fatal(err)
	}
	if c.Initial() != a.Initial() || c.NumStates() != a.NumStates() {
		t.Fatal("shape mismatch")
	}
	// Byte-class compression keeps one row per equivalence class instead of
	// one per byte: the table must be far below the former 1 KiB/state and
	// account for the shared 256-byte class map.
	if c.NumClasses() < 2 || c.NumClasses() > 256 {
		t.Fatalf("NumClasses = %d out of range", c.NumClasses())
	}
	if c.TableBytes() >= a.NumStates()*1024 {
		t.Fatalf("TableBytes = %d, not compressed below %d", c.TableBytes(), a.NumStates()*1024)
	}
	if c.TableBytes() < 256 {
		t.Fatalf("TableBytes = %d misses the class map", c.TableBytes())
	}
	for q := 0; q < a.NumStates(); q++ {
		if c.Accepting(q) != a.Accepting(q) {
			t.Fatalf("finality mismatch at %d", q)
		}
		if len(c.Captures(q)) != len(a.Captures(q)) {
			t.Fatalf("captures mismatch at %d", q)
		}
		for ch := 0; ch < 256; ch++ {
			wantTo, wantOK := a.Step(q, byte(ch))
			gotTo, gotOK := c.Step(q, byte(ch))
			if wantOK != gotOK || (wantOK && wantTo != gotTo) {
				t.Fatalf("Step(%d, %q): dense %d %v, scan %d %v",
					q, byte(ch), gotTo, gotOK, wantTo, wantOK)
			}
		}
	}
}

func TestCompileDenseRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 30; i++ {
		v := gen.RandomVA(rng, 2+rng.Intn(4), 1+rng.Intn(2), "ab")
		e := v.ToExtended()
		d := e.Determinize().Sequentialize()
		c, err := d.CompileDense()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for q := 0; q < d.NumStates(); q++ {
			for _, ch := range []byte{'a', 'b', 'z', 0, 255} {
				wantTo, wantOK := d.Step(q, ch)
				gotTo, gotOK := c.Step(q, ch)
				if wantOK != gotOK || (wantOK && wantTo != gotTo) {
					t.Fatalf("case %d Step(%d, %q) mismatch", i, q, ch)
				}
			}
		}
	}
}

// TestCompileStopsAtDenseStateLimit checks that Compile enforces the
// dense-table limit where subsets are minted: (a|b)*a(a|b)^8 needs 2^9
// subset states, and with the limit lowered below that the compile fails
// without minting a state past the limit.
func TestCompileStopsAtDenseStateLimit(t *testing.T) {
	n, err := rgx.Parse(`(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rgx.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	e := v.ToExtended().Trim()
	full, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if full.NumStates() < 512 {
		t.Fatalf("%d states, want at least 2^9", full.NumStates())
	}
	const limit = 100
	restore := eva.SetMaxDenseStates(limit)
	defer restore()
	minted, err := eva.CompileMinted(e)
	if err == nil || !strings.Contains(err.Error(), "exceed the dense-table limit") {
		t.Fatalf("Compile with the limit at %d: err = %v", limit, err)
	}
	if minted > limit {
		t.Fatalf("minted %d states, limit %d", minted, limit)
	}
	if _, err := e.Determinize().CompileDense(); err == nil {
		t.Fatal("CompileDense must reject a deterministic eVA over the limit")
	}
}

// FuzzFrozenTableMatchesCompileDense checks that the table Compile fills
// straight from the subset construction and freezes is the table
// CompileDense builds from Determinize's output: the same states, ids and
// finality, the same steps on all 256 bytes and captures in order, the
// same merged byte classes and table size.
func FuzzFrozenTableMatchesCompileDense(f *testing.F) {
	for i := range 40 {
		f.Add(uint8(0), int64(42), uint8(i))
	}
	for shape := uint8(1); shape < 7; shape++ {
		f.Add(shape, int64(0), uint8(0))
		f.Add(shape, int64(7), uint8(0))
	}
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, index uint8) {
		e := fuzzEVA(t, shape, seed, index)
		got, gerr := e.Compile()
		want, werr := e.Determinize().CompileDense()
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Compile error %v, CompileDense error %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if got.NumStates() != want.NumStates() || got.Initial() != want.Initial() {
			t.Fatalf("%d states from %d, want %d from %d", got.NumStates(), got.Initial(), want.NumStates(), want.Initial())
		}
		for q := range want.NumStates() {
			if got.Accepting(q) != want.Accepting(q) {
				t.Fatalf("state %d: accepting %v, want %v", q, got.Accepting(q), want.Accepting(q))
			}
			for c := range 256 {
				gt, gok := got.Step(q, byte(c))
				wt, wok := want.Step(q, byte(c))
				if gt != wt || gok != wok {
					t.Fatalf("Step(%d, %q) = %d %v, want %d %v", q, byte(c), gt, gok, wt, wok)
				}
			}
			if !slices.Equal(got.Captures(q), want.Captures(q)) {
				t.Fatalf("state %d: captures %v, want %v", q, got.Captures(q), want.Captures(q))
			}
		}
		if got.NumClasses() != want.NumClasses() || got.TableBytes() != want.TableBytes() {
			t.Fatalf("classes %d, table %d B; want %d, %d B",
				got.NumClasses(), got.TableBytes(), want.NumClasses(), want.TableBytes())
		}
	})
}
