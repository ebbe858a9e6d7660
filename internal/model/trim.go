package model

// Useful numbers the useful states of an automaton with initial state
// initial and finality final: those reachable from initial and
// co-reachable to a final state. The automaton's edges are given as flat
// successor lists, the targets of state q's edges being
// succ[off[q]:off[q+1]]. keep[q] is q's index among the useful states, in
// increasing order of q, or −1 when q is not useful; n is their number.
// The initial state is always kept, as the last state when it is not
// useful: an automaton with an empty language still needs it. When n
// equals the state count, keep is the identity.
//
// Both automaton models trim through it (va.VA.Trim and eva.EVA.Trim).
func Useful(initial int, final []bool, off, succ []int32) (keep []int32, n int) {
	states := len(final)
	// Reverse adjacency, flat: the sources of the edges into q are
	// pred[poff[q]:poff[q+1]].
	poff := make([]int32, states+1)
	for _, t := range succ {
		poff[t+1]++
	}
	for q := range states {
		poff[q+1] += poff[q]
	}
	pred := make([]int32, len(succ))
	fill := make([]int32, states)
	copy(fill, poff)
	for q := range states {
		for _, t := range succ[off[q]:off[q+1]] {
			pred[fill[t]] = int32(q)
			fill[t]++
		}
	}

	const reach, coreach = 1, 2
	mark := make([]uint8, states)
	stack := fill[:0] // fill is spent; its room serves as the DFS stack
	mark[initial] = reach
	stack = append(stack, int32(initial))
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range succ[off[q]:off[q+1]] {
			if mark[t] == 0 {
				mark[t] = reach
				stack = append(stack, t)
			}
		}
	}
	for q, f := range final {
		if f && mark[q] == reach {
			mark[q] |= coreach
			stack = append(stack, int32(q))
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pred[poff[q]:poff[q+1]] {
			if mark[p] == reach {
				mark[p] |= coreach
				stack = append(stack, p)
			}
		}
	}

	keep = poff[:states] // poff is spent too; it becomes the numbering
	for q := range states {
		if mark[q] == reach|coreach {
			keep[q] = int32(n)
			n++
		} else {
			keep[q] = -1
		}
	}
	if keep[initial] == -1 {
		keep[initial] = int32(n)
		n++
	}
	return keep, n
}

// Carve splits flat into per-state lists, list q being
// flat[off[q]:off[q+1]]. Each list is clipped to its length, so that
// appending to one reallocates instead of overwriting the next; an empty
// list is nil. off has one entry more than there are lists.
func Carve[E any](flat []E, off []int32) [][]E {
	out := make([][]E, len(off)-1)
	for q := range out {
		if lo, hi := off[q], off[q+1]; lo < hi {
			out[q] = flat[lo:hi:hi]
		}
	}
	return out
}

// TrimEdges returns the edge lists of the n states that keep numbers (see
// Useful): list keep[q] holds the edges of lists[q] into kept states, in
// their order, retargeted through keep, and all lists are carved from one
// backing array. to points at an edge's target.
func TrimEdges[E any](lists [][]E, keep []int32, n int, to func(*E) *int) [][]E {
	off := make([]int32, n+1)
	for q, l := range lists {
		if k := keep[q]; k >= 0 {
			for i := range l {
				if keep[*to(&l[i])] >= 0 {
					off[k+1]++
				}
			}
		}
	}
	for k := range n {
		off[k+1] += off[k]
	}
	flat := make([]E, off[n])
	for q, l := range lists {
		k := keep[q]
		if k < 0 {
			continue
		}
		i := off[k]
		for j := range l {
			if t := keep[*to(&l[j])]; t >= 0 {
				flat[i] = l[j]
				*to(&flat[i]) = int(t)
				i++
			}
		}
	}
	return Carve(flat, off)
}

// HashStates hashes a list of states, for the open-addressing tables that
// intern state sets and configurations.
func HashStates(t []int) uint32 {
	h := uint32(len(t))
	for _, q := range t {
		h = (h ^ uint32(q)) * 0x9e3779b1
	}
	return h ^ h>>15
}
