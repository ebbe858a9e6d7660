package eva

import (
	"math/bits"

	"spanners/internal/model"
)

// statusVec packs a 2-bit status (unopened/open/closed) per variable, for
// up to 64 variables. It is the second component of the sequentialization
// product: the paper's Proposition 4.1 tracks exactly this information
// ("the sets of variable markers … excluding sets that contain a variable
// that is closed but not opened"), which is why the state count carries the
// 3^ℓ factor.
type statusVec struct {
	lo, hi uint64
}

func (s statusVec) get(v model.Var) int {
	if v < 32 {
		return int(s.lo>>(2*v)) & 3
	}
	return int(s.hi>>(2*(v-32))) & 3
}

func (s statusVec) set(v model.Var, st int) statusVec {
	if v < 32 {
		s.lo = s.lo&^(3<<(2*v)) | uint64(st)<<(2*v)
	} else {
		s.hi = s.hi&^(3<<(2*(v-32))) | uint64(st)<<(2*(v-32))
	}
	return s
}

// apply executes marker set m on the status vector; ok is false if the
// resulting run prefix would be invalid (reopen, double close, close of an
// unopened variable).
func (s statusVec) apply(m model.Set) (statusVec, bool) {
	for b := m.Opens(); b != 0; b &= b - 1 {
		v := model.Var(bits.TrailingZeros64(b))
		if s.get(v) != stUnopened {
			return s, false
		}
		s = s.set(v, stOpen)
	}
	for b := m.Closes(); b != 0; b &= b - 1 {
		v := model.Var(bits.TrailingZeros64(b))
		if s.get(v) != stOpen {
			return s, false
		}
		s = s.set(v, stClosed)
	}
	return s, true
}

// closedOrUnopened reports whether no variable is dangling open — the
// condition for a final product state.
func (s statusVec) closedOrUnopened() bool {
	// Status open is 01; a dangling variable has low bit set and high bit
	// clear in its 2-bit field.
	const lowBits = 0x5555555555555555
	return (s.lo&lowBits)&^(s.lo>>1) == 0 && (s.hi&lowBits)&^(s.hi>>1) == 0
}

// Sequentialize returns an equivalent sequential eVA by taking the product
// of A with the per-variable status vector: transitions that would make a
// run invalid are dropped, and final states additionally require every
// opened variable to be closed. If the input is deterministic the output
// is deterministic, since each (state, status) pair has at most one
// successor per symbol.
//
// The construction multiplies the state count by at most 3^ℓ (only
// reachable product states are materialized). Together with Determinize it
// gives the Proposition 4.1 pipeline: any VA — after conversion to an eVA —
// becomes a deterministic sequential eVA of size at most 2^n · 3^ℓ.
func (a *EVA) Sequentialize() *EVA {
	if a.initial < 0 {
		return New(a.reg)
	}
	type key struct {
		q  int
		st statusVec
	}
	var out builder
	index := make(map[key]int, a.NumStates())
	work := make([]key, 0, a.NumStates())

	intern := func(k key) int {
		if id, ok := index[k]; ok {
			return id
		}
		id := out.addState(a.final[k.q] && k.st.closedOrUnopened())
		index[k] = id
		work = append(work, k)
		return id
	}

	intern(key{a.initial, statusVec{}})
	for i := 0; i < len(work); i++ {
		k := work[i]
		out.begin()
		for _, e := range a.letters[k.q] {
			out.letter(e.Class, intern(key{e.To, k.st}))
		}
		for _, e := range a.captures[k.q] {
			st, ok := k.st.apply(e.S)
			if !ok {
				continue
			}
			out.capture(e.S, intern(key{e.To, st}))
		}
	}
	return out.build(a.reg, 0)
}
