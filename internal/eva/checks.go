package eva

import (
	"math/bits"

	"spanners/internal/model"
)

// Per-variable status values; see the matching check in package va. A run
// of an eVA is valid iff for every variable x the markers of x along the
// run are either absent or open exactly once, close exactly once, with the
// open at or before the close — possibly both in the same marker set, which
// captures the empty span [i, i⟩.
const (
	stUnopened = 0
	stOpen     = 1
	stClosed   = 2
	stError    = 3
)

// IsSequential reports whether every accepting run of A is valid. The
// check is the per-variable status product and runs in O(|A| · ℓ).
func (a *EVA) IsSequential() bool {
	_, ok := a.firstViolation(false)
	return ok
}

// IsFunctional reports whether every accepting run of A is valid and
// mentions every variable in var(A).
func (a *EVA) IsFunctional() bool {
	_, ok := a.firstViolation(true)
	return ok
}

// SequentialityViolation returns a variable witnessing non-sequentiality;
// ok is false when A is sequential.
func (a *EVA) SequentialityViolation() (model.Var, bool) {
	v, seq := a.firstViolation(false)
	return v, !seq
}

func (a *EVA) firstViolation(functional bool) (model.Var, bool) {
	if a.initial < 0 {
		return 0, true
	}
	var p statusProduct
	for used := a.UsedVars(); used != 0; used &= used - 1 {
		v := model.Var(bits.TrailingZeros64(used))
		if !p.ok(a, v, functional) {
			return v, false
		}
	}
	return 0, true
}

// captureStatus advances the status of variable v across a marker set S.
func captureStatus(s int, set model.Set, v model.Var) int {
	if s == stError {
		return stError
	}
	opens, closes := set.HasOpen(v), set.HasClose(v)
	switch {
	case opens && closes:
		if s == stUnopened {
			return stClosed // empty span [i, i⟩
		}
		return stError
	case opens:
		if s == stUnopened {
			return stOpen
		}
		return stError
	case closes:
		if s == stOpen {
			return stClosed
		}
		return stError
	default:
		return s
	}
}

// statusProduct explores the product of A with the status automaton of
// one variable. Because runs of an eVA alternate extended variable
// transitions with letter transitions, the product also tracks whether a
// capture was just taken (phase 1): a path with two consecutive capture
// edges is not a run and must not be counted as a violation witness. Its
// buffers serve every variable of one check.
type statusProduct struct {
	seen  []uint8 // bit (phase*4 + status) per state
	stack []statusCfg
}

type statusCfg struct{ q, s, phase int }

// ok reports whether every accepting run of the product for v is valid
// (and, when functional, assigns v).
func (p *statusProduct) ok(a *EVA, v model.Var, functional bool) bool {
	if p.seen == nil {
		p.seen = make([]uint8, a.NumStates())
	} else {
		clear(p.seen)
	}
	p.stack = p.stack[:0]
	push := func(q, s, phase int) bool {
		bit := uint8(1) << (phase*4 + s)
		if p.seen[q]&bit != 0 {
			return true
		}
		p.seen[q] |= bit
		// A run may end at a final state in either phase (with or without
		// a final extended variable transition).
		if a.final[q] {
			if s == stOpen || s == stError {
				return false
			}
			if functional && s == stUnopened {
				return false
			}
		}
		p.stack = append(p.stack, statusCfg{q, s, phase})
		return true
	}
	if !push(a.initial, stUnopened, 0) {
		return false
	}
	for len(p.stack) > 0 {
		c := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		for _, e := range a.letters[c.q] {
			if !push(e.To, c.s, 0) {
				return false
			}
		}
		if c.phase == 0 {
			for _, e := range a.captures[c.q] {
				if !push(e.To, captureStatus(c.s, e.S, v), 1) {
					return false
				}
			}
		}
	}
	return true
}
