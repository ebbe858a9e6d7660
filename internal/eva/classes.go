package eva

import (
	"math/bits"

	"spanners/internal/model"
)

// classes is a partition of the 256 byte values into equivalence classes
// that no letter edge of some automaton separates: every edge contains
// either all bytes of a class or none, so every construction over the
// automaton may step once per class, from one representative byte, instead
// of once per byte. Classes are numbered in order of their smallest byte.
type classes struct {
	// of maps a byte to its class.
	of [256]uint8
	// rep[k] is the smallest byte of class k; len(rep) is the class count.
	rep []byte
	// set[k] holds the bytes of class k.
	set []model.ByteSet
}

// byteClasses computes the byte equivalence classes of a: two bytes share
// a class iff every letter edge of a contains both or neither. It refines
// {all bytes} against each distinct edge set E, splitting every class C
// that E cuts into C∩E and C∖E with ByteSet word operations, so the cost
// grows with edges × classes, not with the 256 bytes. The subset
// construction computes it once per compile, on the sequential eVA both
// determinization modes start from; a strict table reaches the classes of
// its deterministic automaton by merging columns when it freezes.
// CompileDense computes it once on its deterministic input.
func byteClasses(a *EVA) *classes {
	n := 0
	for q := range a.letters {
		n += len(a.letters[q])
	}
	parts := make([]model.ByteSet, 1, min(n+1, 256))
	parts[0] = model.ByteSet{}.Negate()
	seen := make(map[model.ByteSet]bool, n)
	for q := range a.letters {
		for _, e := range a.letters[q] {
			if seen[e.Class] {
				continue
			}
			seen[e.Class] = true
			for i, n := 0, len(parts); i < n; i++ {
				in := parts[i].Inter(e.Class)
				if in.IsEmpty() || in == parts[i] {
					continue
				}
				parts[i] = parts[i].Minus(e.Class)
				parts = append(parts, in)
			}
		}
	}
	// Renumber the parts in order of their smallest byte.
	var part [256]uint8
	for i, s := range parts {
		for w, x := range s {
			for ; x != 0; x &= x - 1 {
				part[w<<6|bits.TrailingZeros64(x)] = uint8(i)
			}
		}
	}
	out := &classes{rep: make([]byte, 0, len(parts)), set: make([]model.ByteSet, 0, len(parts))}
	var num [256]int16
	for b := range 256 {
		i := part[b]
		if num[i] == 0 {
			out.rep = append(out.rep, byte(b))
			out.set = append(out.set, parts[i])
			num[i] = int16(len(out.rep))
		}
		out.of[b] = uint8(num[i] - 1)
	}
	return out
}
