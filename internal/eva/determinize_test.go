package eva_test

import (
	"math/rand"
	"slices"
	"testing"

	"spanners/internal/eva"
	"spanners/internal/gen"
	"spanners/internal/model"
	"spanners/internal/rgx"
	"spanners/internal/va"
)

// churnBases are the structural Figure-1 variants of the query-churn
// benchmark workload; the tag lands inside a character class.
var churnBases = []func(tag string) string{
	func(t string) string {
		return `.*!name{[A-Z][a-z` + t + `]+} <(!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*`
	},
	func(t string) string {
		return `.*!name{[A-Z][a-z` + t + `]+} <!email{[a-z0-9]+@[a-z0-9]+(\.[a-z0-9]+)+}>.*`
	},
	func(t string) string {
		return `.*!name{[A-Z][a-z` + t + `]+} <!phone{[0-9]+-[0-9]+}>.*`
	},
	func(t string) string {
		return `.*<(!email{[a-z0-9` + t + `]+@[a-z0-9]+(\.[a-z0-9]+)+}|!phone{[0-9]+-[0-9]+})>.*`
	},
}

// fuzzEVA builds the input of FuzzDeterminizeByteClasses. Shape 0 is the
// index-th random VA drawn from seed exactly as TestDeterminizeRandom draws
// them; shape 1 a random eVA whose letter edges carry overlapping byte
// ranges, so its byte classes are neither singletons nor all bytes; shape
// 2 the Figure 2 automaton; shapes 3–6 the trimmed sequential eVA of a
// churn base, tagged by seed.
func fuzzEVA(t *testing.T, shape uint8, seed int64, index uint8) *eva.EVA {
	rng := rand.New(rand.NewSource(seed))
	switch s := shape % 7; s {
	case 0:
		var v *va.VA
		for i := 0; i <= int(index%64); i++ {
			v = gen.RandomVA(rng, 2+rng.Intn(4), 1+rng.Intn(2), "ab")
		}
		return v.ToExtended()
	case 1:
		return randomRangeEVA(rng)
	case 2:
		return gen.Figure2VA().ToExtended()
	default:
		const pool = "_#=~;:'%"
		var tag []byte
		for id := seed & 0xffff; id > 0; id /= int64(len(pool)) {
			tag = append(tag, pool[id%int64(len(pool))])
		}
		n, err := rgx.Parse(churnBases[s-3](string(tag)))
		if err != nil {
			t.Fatal(err)
		}
		v, err := rgx.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		e := v.ToExtended().Trim()
		if !e.IsSequential() {
			e = e.Sequentialize().Trim()
		}
		return e
	}
}

// randomRangeEVA returns a random eVA over one or two variables whose
// letter edges read random byte ranges (sometimes negated) around 'a'–'h'.
func randomRangeEVA(rng *rand.Rand) *eva.EVA {
	reg := model.NewRegistryOf("x", "y")
	x, _ := reg.Lookup("x")
	y, _ := reg.Lookup("y")
	vars := []model.Var{x, y}
	a := eva.New(reg)
	n := 2 + rng.Intn(5)
	for range n {
		a.AddState()
	}
	a.SetInitial(0)
	a.SetFinal(rng.Intn(n), true)
	for range n + rng.Intn(3*n) {
		var class model.ByteSet
		lo := byte('a' + rng.Intn(8))
		class.AddRange(lo, lo+byte(rng.Intn(4)))
		if rng.Intn(5) == 0 {
			class = class.Negate()
		}
		a.AddLetter(rng.Intn(n), class, rng.Intn(n))
	}
	for range 1 + rng.Intn(n) {
		m := model.Open(vars[rng.Intn(2)])
		if rng.Intn(2) == 0 {
			m = model.CloseOf(vars[rng.Intn(2)])
		}
		s := model.SetOf(m)
		if rng.Intn(3) == 0 {
			s = s.With(model.Open(vars[rng.Intn(2)]))
		}
		a.AddCapture(rng.Intn(n), s, rng.Intn(n))
	}
	return a
}

// FuzzDeterminizeByteClasses checks the class-based subset construction
// against the per-byte reference: Determinize must build the same
// automaton, state for state and edge for edge, and the lazy determinizer
// must answer the same member subset for every state it discovers, on
// every byte and every capture edge.
func FuzzDeterminizeByteClasses(f *testing.F) {
	for i := range 40 {
		f.Add(uint8(0), int64(42), uint8(i)) // TestDeterminizeRandom's cases
	}
	for shape := uint8(1); shape < 7; shape++ {
		f.Add(shape, int64(0), uint8(0))
		f.Add(shape, int64(7), uint8(0))
	}
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, index uint8) {
		e := fuzzEVA(t, shape, seed, index)

		got, want := e.Determinize(), eva.DeterminizeReference(e)
		if got.NumStates() != want.NumStates() || got.Initial() != want.Initial() {
			t.Fatalf("%d states from %d, want %d from %d", got.NumStates(), got.Initial(), want.NumStates(), want.Initial())
		}
		for q := range want.NumStates() {
			if got.IsFinal(q) != want.IsFinal(q) {
				t.Fatalf("state %d: final %v, want %v", q, got.IsFinal(q), want.IsFinal(q))
			}
			if !slices.Equal(got.Letters(q), want.Letters(q)) {
				t.Fatalf("state %d: letters %v, want %v", q, got.Letters(q), want.Letters(q))
			}
			if !slices.Equal(got.Captures(q), want.Captures(q)) {
				t.Fatalf("state %d: captures %v, want %v", q, got.Captures(q), want.Captures(q))
			}
		}

		if e.Initial() < 0 {
			return
		}
		l := eva.NewLazy(e)
		for q := 0; q < l.StatesDiscovered(); q++ {
			members := eva.LazyMembers(l, q)
			for c := range 256 {
				to := eva.ReferenceStep(e, members, byte(c))
				next, ok := l.Step(q, byte(c))
				if ok != (to != nil) || ok && !slices.Equal(eva.LazyMembers(l, next), to) {
					t.Fatalf("lazy state %d %v on %q: %v (%v), want %v", q, members, byte(c), next, ok, to)
				}
			}
			for _, cp := range l.Captures(q) {
				var to []int
				for _, m := range members {
					for _, ce := range e.Captures(m) {
						if ce.S == cp.S {
							to = append(to, ce.To)
						}
					}
				}
				slices.Sort(to)
				if to = slices.Compact(to); !slices.Equal(eva.LazyMembers(l, cp.To), to) {
					t.Fatalf("lazy state %d %v: capture into %v, want %v", q, members, eva.LazyMembers(l, cp.To), to)
				}
			}
		}
	})
}
