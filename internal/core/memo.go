package core

import "spanners/internal/model"

// memoBudget is the size, in bytes, past which a memo flushes on its next
// miss (see memo.build). It bounds the memo of an automaton whose
// documents reach many configurations; typical scans stay far below it.
var memoBudget = 1 << 20

// Classifier is the optional interface of an Automaton whose letter
// transitions see a byte only through its class: Step(q, b) = Step(q, b′)
// for every state q whenever of[b] == of[b′], and n is the number of
// classes. The memo then keys its programs on the class, so one miss
// serves every byte of it. Without it, every byte is its own class.
type Classifier interface {
	ByteClasses() (of *[256]uint8, n int)
}

// identityClasses is the byte → class map of an automaton without classes.
var identityClasses = func() (of [256]uint8) {
	for b := range of {
		of[b] = uint8(b)
	}
	return of
}()

const (
	// deadConfig is the id of the empty configuration, which every flush
	// interns first: no run is live.
	deadConfig = 0
	// unknown marks a skips entry not yet computed.
	unknown = -2
	// relabel marks a transition entry whose program is relabel-only: no
	// useful capture fires, and slot k reads into slot k of the next
	// configuration. The remaining bits are that configuration's id.
	relabel = 1 << 31
)

// memo holds the round programs of one automaton. A configuration is the
// ordered tuple of live states, the slot of a state being its position in
// the tuple; it is interned once, so slot order stays first-arrival order.
// The program of (configuration, byte class) is one round of Algorithm 1
// — Capturing, then Reading — in slot terms, computed from Captures and
// Step on the first miss and replayed afterwards without an interface
// call:
//
//   - the useful capture ops, (source slot, capture index, middle slot):
//     a capture (q, S, p) is useful when Step(p, c) is defined, since any
//     other node it would make dies with p in the same round. The middle
//     configuration is the starting one extended by the targets not yet
//     live, in the order Capturing opens them;
//   - the Reading moves, (middle slot, next slot), in middle-slot order,
//     so the next slots open in first-arrival order;
//   - the next configuration.
//
// A relabel-only program (no op, identity moves) is stored in the
// transition entry itself, so such a byte costs one table load; when it
// relabels the configuration onto itself the byte is inert, and the scan
// loops skip the inert bytes that follow it (see skip). The
// column past the last class holds the Close program: there a capture is
// useful when p is accepting, and the moves list the accepting middle
// slots. Pruning only drops nodes no run can reach the end through, so
// the DAG that survives, the enumeration order and the counts are those
// of the per-state procedures (perstate_test.go keeps them as the
// reference).
//
// Each pass owns a memo in its reusable state (Scratch, CountStream): it
// is kept across documents of the same automaton and reset, keeping its
// capacity, for another one. Once the memo passes memoBudget it flushes
// on the next miss and re-interns the configuration in progress, as RE2's
// lazy DFA flushes its state cache.
type memo struct {
	a Automaton
	// of maps a byte to its column; stride is the number of columns, the
	// Close column last. cols[k] is the set of bytes of column k.
	of     *[256]uint8
	stride int
	cols   []model.ByteSet
	// states holds the interned tuples back to back: configuration c is
	// states[off[c]:off[c+1]].
	states []int
	off    []int32
	// index is an open-addressing hash table of configuration ids plus
	// one, 0 marking an empty entry; its length is a power of two.
	index []int32
	// trans[c*stride+col] is 0 when not yet built, relabel|next for a
	// relabel-only program, and otherwise one plus the index of the
	// program in progs.
	trans []uint32
	progs []program
	ops   []op
	moves []move
	// skips[c] is the index in recs of configuration c's skip record, -1
	// when c has no inert byte, and unknown until a skip attempt in c
	// computes it. A build that stores a relabel|c entry in c's row makes
	// it unknown again, so the record grows with the columns the
	// documents exercise; an unbuilt column is never inert.
	skips []int32
	recs  []skipRec
	// caps[q] is Captures(q) for every state a build has started from, so
	// builds and the pass registering q's marker sets make no interface
	// call for it again. It survives flushes.
	caps [][]model.Capture
	// Build scratch: tup holds the middle tuple, then the next one;
	// slot[q] is q's slot in the tuple being built, -1 when absent; tmp
	// holds the configuration a flush re-interns.
	tup  []int
	slot []int32
	tmp  []int
}

// program is one round over a configuration: ops[opLo:opHi] and
// moves[mvLo:mvHi] of its memo. nMid and nNext are the slot counts of the
// middle and next configurations, and next is the latter's id (unused in
// a Close program).
type program struct {
	opLo, opHi, mvLo, mvHi int32
	nMid, nNext, next      int32
}

// op is a useful capture: a node for Captures(q)[j], q the state in slot
// src, whose adjacency list is src's starting list, prepended to the list
// of middle slot mid.
type op struct {
	src, mid, q, j int32
}

// move appends the list (or adds the count) of middle slot from to next
// slot to. Next slots open in order, so the first move into a slot is the
// one whose to equals the number of slots opened so far. In a Close
// program, from is an accepting middle slot.
type move struct {
	from, to int32
}

// use makes a the memo's automaton, resetting the memo, capacities kept,
// when it held another one. Automata are compared by identity, so an
// automaton must not change its transitions between passes that share a
// memo (frozen and lazy tables only ever fill theirs).
func (m *memo) use(a Automaton) {
	if m.a == a {
		return
	}
	m.a, m.of, m.stride = a, &identityClasses, len(identityClasses)+1
	if c, ok := a.(Classifier); ok {
		m.of, m.stride = c.ByteClasses()
		m.stride++
	}
	m.cols = widen(m.cols, nil, m.stride-1)
	for b := range 256 {
		m.cols[m.of[b]].Add(byte(b))
	}
	clear(m.caps)
	m.caps, m.slot = m.caps[:0], m.slot[:0]
	m.flush()
}

// flush forgets every configuration and program; the empty configuration
// is interned again as deadConfig.
func (m *memo) flush() {
	m.states, m.off = m.states[:0], m.off[:0]
	m.off = append(m.off, 0)
	m.trans, m.progs, m.ops, m.moves = m.trans[:0], m.progs[:0], m.ops[:0], m.moves[:0]
	m.skips, m.recs = m.skips[:0], m.recs[:0]
	m.index = m.index[:0]
	m.growIndex()
	m.intern(nil)
}

// size returns the memo's footprint in bytes, as the budget charges it.
func (m *memo) size() int {
	return 4*(len(m.off)+len(m.skips)+len(m.index)+len(m.trans)) + 8*len(m.states) +
		28*len(m.progs) + 16*len(m.ops) + 8*len(m.moves) + 40*len(m.recs)
}

// start interns the initial configuration, the initial state alone.
func (m *memo) start() int32 {
	m.tmp = append(m.tmp[:0], m.a.Initial())
	return m.intern(m.tmp)
}

// tuple returns the states of configuration c in slot order.
func (m *memo) tuple(c int32) []int { return m.states[m.off[c]:m.off[c+1]] }

// skip returns the skip record of configuration c, nil when c has no
// inert byte, computing it when a build has grown c's inert set since.
func (m *memo) skip(c int32) *skipRec {
	r := m.skips[c]
	if r == unknown {
		r = m.record(c)
		m.skips[c] = r
	}
	if r < 0 {
		return nil
	}
	return &m.recs[r]
}

// record makes the skip record of configuration c from the columns of
// its row built so far and returns its index, -1 when none is inert.
func (m *memo) record(c int32) int32 {
	var inert model.ByteSet
	self := relabel | uint32(c)
	for k, x := range m.trans[int(c)*m.stride:][:m.stride-1] {
		if x == self {
			inert = inert.Union(m.cols[k])
		}
	}
	if inert.IsEmpty() {
		return -1
	}
	r := skipRec{inert: inert, nExits: -1}
	if inert.Len() >= 256-maxExits {
		r.nExits = 0
		for b := range 256 {
			if !inert.Has(byte(b)) {
				r.exits[r.nExits] = byte(b)
				r.nExits++
			}
		}
	}
	m.recs = append(m.recs, r)
	return int32(len(m.recs) - 1)
}

// closing returns the Close program of configuration c.
func (m *memo) closing(c int32) *program {
	x := m.trans[int(c)*m.stride+m.stride-1]
	if x == 0 {
		x = m.build(c, m.stride-1, 0)
	}
	return &m.progs[x-1]
}

// intern returns the id of the configuration with tuple t, adding it when
// new. t is copied.
func (m *memo) intern(t []int) int32 {
	mask := len(m.index) - 1
	i := int(model.HashStates(t)) & mask
	for ; m.index[i] != 0; i = (i + 1) & mask {
		if c := m.index[i] - 1; sameTuple(m.tuple(c), t) {
			return c
		}
	}
	c := int32(len(m.off) - 1)
	m.states = append(m.states, t...)
	m.off = append(m.off, int32(len(m.states)))
	m.skips = append(m.skips, unknown)
	for range m.stride {
		m.trans = append(m.trans, 0)
	}
	m.index[i] = c + 1
	if 2*len(m.off) > len(m.index) {
		m.growIndex()
	}
	return c
}

// growIndex doubles the hash table, with a floor of 64 entries, and
// re-inserts every configuration.
func (m *memo) growIndex() {
	n := max(2*len(m.index), 64)
	if cap(m.index) < n {
		m.index = make([]int32, n)
	} else {
		m.index = m.index[:n]
		clear(m.index)
	}
	for c := int32(0); int(c) < len(m.off)-1; c++ {
		i := int(model.HashStates(m.tuple(c))) & (n - 1)
		for m.index[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		m.index[i] = c + 1
	}
}

func sameTuple(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// open returns q's slot in the tuple being built at tup[base:], appending
// q when it is absent.
func (m *memo) open(base, q int) int32 {
	for len(m.slot) <= q {
		m.slot = append(m.slot, -1)
	}
	if k := m.slot[q]; k >= 0 {
		return k
	}
	m.slot[q] = int32(len(m.tup) - base)
	m.tup = append(m.tup, q)
	return m.slot[q]
}

// release clears the slots open gave the states of t.
func (m *memo) release(t []int) {
	for _, q := range t {
		m.slot[q] = -1
	}
}

// build computes the program of configuration c for column col — byte b
// when col is a class, the Close column otherwise — stores its transition
// entry and returns it. Ops and moves follow the per-state procedures'
// order: start slots in order, each one's captures in order, then the
// middle slots in order. When the memo is over budget it flushes first,
// and the returned entry belongs to the re-interned configuration.
func (m *memo) build(c int32, col int, b byte) uint32 {
	if m.size() > memoBudget {
		m.tmp = append(m.tmp[:0], m.tuple(c)...)
		m.flush()
		c = m.intern(m.tmp)
	}
	closing := col == m.stride-1
	start := m.tuple(c)
	p := program{opLo: int32(len(m.ops)), mvLo: int32(len(m.moves))}

	// Capturing: the middle configuration extends the starting one.
	m.tup = m.tup[:0]
	for _, q := range start {
		m.open(0, q)
	}
	for k, q := range start {
		caps := m.captures(q)
		for j, t := range caps {
			if !m.useful(t.To, closing, b) {
				continue
			}
			m.ops = append(m.ops, op{src: int32(k), mid: m.open(0, t.To), q: int32(q), j: int32(j)})
		}
	}
	nMid := len(m.tup)
	m.release(m.tup)
	p.opHi, p.nMid = int32(len(m.ops)), int32(nMid)

	if closing {
		for k, q := range m.tup {
			if m.a.Accepting(q) {
				m.moves = append(m.moves, move{from: int32(k), to: -1})
			}
		}
	} else {
		// Reading: each middle slot moves to its letter successor's slot.
		for k := range nMid {
			if t, ok := m.a.Step(m.tup[k], b); ok {
				m.moves = append(m.moves, move{from: int32(k), to: m.open(nMid, t)})
			}
		}
		next := m.tup[nMid:]
		m.release(next)
		p.nNext = int32(len(next))
		p.next = m.intern(next)
	}
	p.mvHi = int32(len(m.moves))

	var x uint32
	if !closing && m.relabels(&p, len(start)) {
		m.moves = m.moves[:p.mvLo]
		x = relabel | uint32(p.next)
		if p.next == c {
			m.skips[c] = unknown
		}
	} else {
		m.progs = append(m.progs, p)
		x = uint32(len(m.progs))
	}
	m.trans[int(c)*m.stride+col] = x
	return x
}

// useful reports whether a capture into p can make a node some run
// carries on: p reads b, or at Close, p is accepting.
func (m *memo) useful(p int, closing bool, b byte) bool {
	if closing {
		return m.a.Accepting(p)
	}
	_, ok := m.a.Step(p, b)
	return ok
}

// relabels reports whether p, over a configuration of n slots, fires no
// op and moves every slot k to slot k.
func (m *memo) relabels(p *program, n int) bool {
	if p.opLo != p.opHi || p.nNext != int32(n) || int(p.mvHi-p.mvLo) != n {
		return false
	}
	for k, mv := range m.moves[p.mvLo:p.mvHi] {
		if mv.from != int32(k) || mv.to != int32(k) {
			return false
		}
	}
	return true
}

// captures returns Captures(q), asking the automaton only while the memo
// holds no list for q.
func (m *memo) captures(q int) []model.Capture {
	for len(m.caps) <= q {
		m.caps = append(m.caps, nil)
	}
	if m.caps[q] == nil {
		m.caps[q] = m.a.Captures(q)
	}
	return m.caps[q]
}

// widen returns buf refilled with from followed by zero elements up to
// length n, reallocating only when its capacity is short.
func widen[T any](buf, from []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	clear(buf[copy(buf, from):])
	return buf
}
