package core

// liveSet is the live configuration Algorithm 1 and its counting variant
// share: the states some partial run reaches, in slot order. A pass keeps
// what a state carries — its node list, uint64 count or big count — in a
// slice indexed by slot beside the set, so the slot is the one membership
// test and the one index every pass uses.
//
// Capturing only opens slots (add), after the round's starting ones.
// Reading starts an empty configuration (turn) and opens a slot for each
// letter successor in the order of the slots it reads from, so slot order
// is first-arrival order and enumeration order follows from it.
type liveSet struct {
	// states[k] is the state in slot k.
	states []int
	// slot[q] is q's slot, or -1 when q is not live; it grows as on-the-fly
	// automata mint states.
	slot []int32
	// prev is the configuration the last turn started from.
	prev []int
}

// reset makes q0 the only live state, in slot 0.
func (l *liveSet) reset(q0 int) {
	l.states, l.prev, l.slot = l.states[:0], l.prev[:0], l.slot[:0]
	l.add(q0)
}

// add returns q's slot, opening the next one for q when q is not live.
func (l *liveSet) add(q int) int {
	for len(l.slot) <= q {
		l.slot = append(l.slot, -1)
	}
	if k := l.slot[q]; k >= 0 {
		return int(k)
	}
	l.slot[q] = int32(len(l.states))
	l.states = append(l.states, q)
	return len(l.states) - 1
}

// turn starts Reading's next configuration, empty, and returns the one it
// reads from: slot k of the result is the state whose value the pass moves
// from its slot k.
func (l *liveSet) turn() []int {
	for _, q := range l.states {
		l.slot[q] = -1
	}
	l.prev, l.states = l.states, l.prev[:0]
	return l.prev
}

// rewind makes the first n slots of the configuration the last turn read
// from live again: the start of a round that overflowed, since Capturing
// only appends slots.
func (l *liveSet) rewind(n int) {
	for _, q := range l.states {
		l.slot[q] = -1
	}
	l.states, l.prev = l.prev[:n], l.states[:0]
	for k, q := range l.states {
		l.slot[q] = int32(k)
	}
}
