package core

import (
	"math/big"
)

// counter is the uint64 Algorithm 3 state: counts[k] is the number of
// partial runs reaching the state in slot k of live. Membership is the
// slot, not counts[k] != 0: once arithmetic has wrapped, a live state can
// carry a count of exactly zero.
type counter struct {
	a        Automaton
	live     liveSet
	counts   []uint64
	pre      []uint64 // Capturing's snapshot: the counts of the round's starting slots
	olds     []uint64 // Reading's snapshot
	overflow bool
}

// reset starts a pass of a at its initial state, keeping the buffers.
func (c *counter) reset(a Automaton) {
	c.a, c.overflow = a, false
	c.counts = c.counts[:0]
	c.live.reset(a.Initial())
	c.add(0, 1)
}

// add adds n runs to slot k, which live.add may have just opened.
func (c *counter) add(k int, n uint64) {
	if k == len(c.counts) {
		c.counts = append(c.counts, n)
		return
	}
	sum, carry := addOverflow(c.counts[k], n)
	c.counts[k] = sum
	c.overflow = c.overflow || carry
}

func addOverflow(a, b uint64) (uint64, bool) {
	s := a + b
	return s, s < a
}

// capturing mirrors Capturing(i): N[p] += N′[q] for every capture
// transition (q, S, p), where N′ (pre) is the snapshot before the
// procedure. It only opens slots after the round's starting ones, so pre
// still describes the round's starting configuration after it.
func (c *counter) capturing() {
	c.pre = append(c.pre[:0], c.counts...)
	for k, n := range c.pre {
		for _, t := range c.a.Captures(c.live.states[k]) {
			c.add(c.live.add(t.To), n)
		}
	}
}

// reading mirrors Reading(i): counts move along letter transitions.
func (c *counter) reading(ch byte) {
	from := c.live.turn()
	c.olds, c.counts = c.counts, c.olds[:0]
	for k, q := range from {
		if t, ok := c.a.Step(q, ch); ok {
			c.add(c.live.add(t), c.olds[k])
		}
	}
}

// total sums the counts of the accepting live states; exact is false when
// any step of the computation overflowed uint64 (the sum is then the low
// 64 bits of the true total).
func (c *counter) total() (count uint64, exact bool) {
	var total uint64
	for k, q := range c.live.states {
		if c.a.Accepting(q) {
			var carry bool
			total, carry = addOverflow(total, c.counts[k])
			c.overflow = c.overflow || carry
		}
	}
	return total, !c.overflow
}

// bigCounter is the arbitrary-precision Algorithm 3 state. It shares the
// counter's live set: counts[k] is the number of runs reaching the state
// in slot k.
type bigCounter struct {
	a      Automaton
	live   *liveSet
	counts []*big.Int
	olds   []*big.Int
}

// add adds n runs to slot k, which live.add may have just opened.
func (c *bigCounter) add(k int, n *big.Int) {
	if k == len(c.counts) {
		c.counts = append(c.counts, new(big.Int))
	}
	c.counts[k].Add(c.counts[k], n)
}

func (c *bigCounter) capturing() {
	c.olds = c.olds[:0]
	for _, n := range c.counts {
		c.olds = append(c.olds, new(big.Int).Set(n))
	}
	for k, n := range c.olds {
		for _, t := range c.a.Captures(c.live.states[k]) {
			c.add(c.live.add(t.To), n)
		}
	}
}

func (c *bigCounter) reading(ch byte) {
	from := c.live.turn()
	c.olds, c.counts = c.counts, c.olds[:0]
	for k, q := range from {
		if t, ok := c.a.Step(q, ch); ok {
			c.add(c.live.add(t), c.olds[k])
		}
	}
}

// total sums the counts of the accepting live states.
func (c *bigCounter) total() *big.Int {
	total := new(big.Int)
	for k, q := range c.live.states {
		if c.a.Accepting(q) {
			total.Add(total, c.counts[k])
		}
	}
	return total
}

// CountStream is Algorithm 3 (appendix C): it computes |⟦A⟧d| for a
// deterministic sequential eVA in time O(|A| × |d|) by replacing each node
// list of Algorithm 1 with the number of partial runs reaching the state.
// Because the automaton is sequential (every partial run encodes a valid
// partial mapping) and deterministic (each partial run encodes a distinct
// partial mapping), the run count per state equals the partial-mapping
// count, and summing over the final states yields |⟦A⟧d|. Feed advances
// the per-state counts chunk by chunk and Close runs the final Capturing,
// so the document is never materialized (counting, unlike enumeration,
// needs no document bytes).
//
// Counts run in uint64 — the paper's uniform-cost RAM model — until the
// first overflow. The round (Capturing and Reading over one byte) that
// overflows is rewound from the counts Capturing set aside, replayed with
// arbitrary-precision arithmetic, and the stream stays in big mode from
// then on. A CountStream is not goroutine-safe.
type CountStream struct {
	c      counter
	gate   accelGate
	bc     *bigCounter // non-nil once migrated to big arithmetic
	closed bool
}

// NewCountStream starts an incremental counting pass of a over a document
// to be delivered via Feed.
func NewCountStream(a Automaton) *CountStream {
	s := new(CountStream)
	s.Reset(a)
	return s
}

// Reset restarts s as a fresh counting pass of a. It keeps the buffers of
// the previous pass, so a reused CountStream counts without allocating
// once they have grown to the automaton's size.
func (s *CountStream) Reset(a Automaton) {
	s.bc, s.closed = nil, false
	s.c.reset(a)
	s.gate.init(a)
}

// Feed advances the counting pass over the next chunk of the document. The
// chunk is not retained. Feed panics if the stream is already closed.
//
// Once the live state set drains (see Dead), Feed returns immediately and
// the remaining input costs nothing beyond delivery.
//
// spanlint:hotpath — the uint64 counting loop allocates nothing; hotalloc
// (cmd/spanlint) enforces it. The arbitrary-precision rounds (bigRound)
// allocate by design and are waived at their call site.
func (s *CountStream) Feed(chunk []byte) {
	if s.closed {
		panic("core: CountStream.Feed after Close")
	}
	i, last := 0, 0
	for i < len(chunk) && len(s.c.live.states) > 0 {
		if s.gate.on {
			if n := s.gate.skip(s.c.live.states, chunk, i, &last); n > 0 {
				i += n
				continue
			}
		}
		if !s.c.overflow {
			s.c.capturing()
			s.c.reading(chunk[i])
		}
		if s.c.overflow {
			//spanlint:ignore hotalloc big.Int arithmetic allocates by design; entered only once a uint64 count overflowed, never on the fast path
			s.bigRound(chunk[i])
		}
		i++
	}
}

// Dead reports whether the live state set has drained: no partial run
// survives and no later byte can revive one, so the count is 0 whatever
// follows and callers may stop feeding.
func (s *CountStream) Dead() bool { return len(s.c.live.states) == 0 }

// bigRound runs the round over ch in big arithmetic. Right after the
// uint64 round over ch overflowed, it first migrates and replays that
// round.
func (s *CountStream) bigRound(ch byte) {
	if s.bc == nil {
		s.migrate()
	}
	s.bc.capturing()
	s.bc.reading(ch)
}

// migrate switches to big arithmetic at the start of the round that
// overflowed, which the caller then replays: the shared live set rewinds
// to the round's starting slots, and the counts Capturing set aside for
// them convert.
func (s *CountStream) migrate() {
	s.c.live.rewind(len(s.c.pre))
	bc := &bigCounter{a: s.c.a, live: &s.c.live}
	for _, n := range s.c.pre {
		bc.counts = append(bc.counts, new(big.Int).SetUint64(n))
	}
	s.bc = bc
}

// Close runs the final Capturing. It is idempotent; Count and CountBig call
// it implicitly.
func (s *CountStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.c.overflow {
		s.c.capturing()
		if !s.c.overflow {
			return
		}
		// This Capturing overflowed and no Reading follows: turn, so that
		// migrate finds the configuration Capturing extended where a
		// Feed round leaves it.
		s.c.live.turn()
		s.migrate()
	}
	s.bc.capturing()
}

// Count returns |⟦A⟧d| for the document fed so far. exact is false only
// when |⟦A⟧d| does not fit in uint64; count is then its low 64 bits, and
// CountBig has the full value.
func (s *CountStream) Count() (count uint64, exact bool) {
	s.Close()
	if s.bc != nil {
		t := s.bc.total()
		if t.IsUint64() {
			return t.Uint64(), true
		}
		return low64(t), false
	}
	return s.c.total()
}

// AccelSkippedBytes returns how many document bytes the acceleration layer
// bulk-skipped so far (0 when the automaton carries no Accelerator).
func (s *CountStream) AccelSkippedBytes() int64 { return s.gate.skipped }

// AccelFellBack reports whether the effectiveness fallback disabled
// acceleration for the rest of the document.
func (s *CountStream) AccelFellBack() bool { return s.gate.fellBack }

// low64 returns the low 64 bits of a non-negative big integer.
func low64(t *big.Int) uint64 {
	mask := new(big.Int).SetUint64(^uint64(0))
	return new(big.Int).And(t, mask).Uint64()
}

// CountBig returns the exact |⟦A⟧d| with arbitrary-precision arithmetic.
func (s *CountStream) CountBig() *big.Int {
	s.Close()
	if s.bc != nil {
		return s.bc.total()
	}
	if n, exact := s.c.total(); exact {
		return new(big.Int).SetUint64(n)
	}
	// The totals sum itself overflowed even though every per-state count
	// fit; re-sum the final counts in big arithmetic.
	total := new(big.Int)
	var t big.Int
	for k, q := range s.c.live.states {
		if s.c.a.Accepting(q) {
			total.Add(total, t.SetUint64(s.c.counts[k]))
		}
	}
	return total
}
