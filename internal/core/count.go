package core

import (
	"math/big"
)

// total sums the counts of the accepting live states; exact is false when
// any step of the computation overflowed uint64 (the sum is then the low
// 64 bits of the true total).
func (c *counter) total() (count uint64, exact bool) {
	var total uint64
	for _, q := range c.live {
		if c.a.Accepting(q) {
			var carry bool
			total, carry = addOverflow(total, c.counts[q])
			c.overflow = c.overflow || carry
		}
	}
	return total, !c.overflow
}

// counter is the uint64 Algorithm 3 state. live holds each live state —
// one reached by some partial run — exactly once; inLive is the matching
// membership bitmap. Membership must be tracked explicitly rather than as
// counts[q] != 0: once arithmetic has wrapped, a live state can carry a
// count of exactly zero, and using the count as the sentinel would append
// it to live twice, double-counting it in total() and breaking the
// low-64-bits contract.
type counter struct {
	a        Automaton
	counts   []uint64
	live     []int
	inLive   []bool
	pre      []uint64 // Capturing's snapshot: the counts of live[:len(pre)] at round start
	olds     []uint64 // Reading's snapshot
	nextLive []int
	overflow bool
}

// reset starts a pass of a at its initial state, keeping the buffers.
func (c *counter) reset(a Automaton) {
	c.a, c.overflow = a, false
	c.counts, c.inLive, c.live = c.counts[:0], c.inLive[:0], c.live[:0]
	q0 := a.Initial()
	c.ensure(q0)
	c.counts[q0] = 1
	c.inLive[q0] = true
	c.live = append(c.live, q0)
}

func (c *counter) ensure(q int) {
	for len(c.counts) <= q {
		c.counts = append(c.counts, 0)
		c.inLive = append(c.inLive, false)
	}
}

func (c *counter) add(q int, n uint64) {
	sum, carry := addOverflow(c.counts[q], n)
	c.counts[q] = sum
	c.overflow = c.overflow || carry
}

func addOverflow(a, b uint64) (uint64, bool) {
	s := a + b
	return s, s < a
}

// capturing mirrors Capturing(i): N[p] += N′[q] for every capture
// transition (q, S, p), where N′ (pre) is the snapshot before the
// procedure. It only appends to live, so live[:len(pre)] and pre still
// describe the round's starting configuration after it.
func (c *counter) capturing() {
	c.pre = c.pre[:0]
	for _, q := range c.live {
		c.pre = append(c.pre, c.counts[q])
	}
	n := len(c.live)
	for k := 0; k < n; k++ {
		q := c.live[k]
		for _, t := range c.a.Captures(q) {
			c.ensure(t.To)
			if !c.inLive[t.To] {
				c.inLive[t.To] = true
				c.live = append(c.live, t.To)
			}
			c.add(t.To, c.pre[k])
		}
	}
}

// reading mirrors Reading(i): counts move along letter transitions.
func (c *counter) reading(ch byte) {
	c.olds = c.olds[:0]
	for _, q := range c.live {
		c.olds = append(c.olds, c.counts[q])
		c.counts[q] = 0
		c.inLive[q] = false
	}
	c.nextLive = c.nextLive[:0]
	for k, q := range c.live {
		t, ok := c.a.Step(q, ch)
		if !ok {
			continue
		}
		c.ensure(t)
		if !c.inLive[t] {
			c.inLive[t] = true
			c.nextLive = append(c.nextLive, t)
		}
		c.add(t, c.olds[k])
	}
	c.live, c.nextLive = c.nextLive, c.live
}

// total sums the counts of the accepting live states.
func (c *bigCounter) total() *big.Int {
	total := new(big.Int)
	for _, q := range c.live {
		if c.a.Accepting(q) && c.counts[q] != nil {
			total.Add(total, c.counts[q])
		}
	}
	return total
}

// bigCounter is the arbitrary-precision Algorithm 3 state. A nil count is
// the liveness sentinel: counts[q] is non-nil exactly when q ∈ live (a
// materialized zero still means live — runs whose wrapped uint64 count was
// zero at migration). Keying liveness on nil rather than on a zero value
// keeps each state in live exactly once, so total() never double-counts.
type bigCounter struct {
	a        Automaton
	counts   []*big.Int
	live     []int
	olds     []*big.Int
	nextLive []int
}

func (c *bigCounter) ensure(q int) {
	for len(c.counts) <= q {
		c.counts = append(c.counts, nil)
	}
}

func (c *bigCounter) add(q int, n *big.Int) {
	if c.counts[q] == nil {
		c.counts[q] = new(big.Int)
	}
	c.counts[q].Add(c.counts[q], n)
}

func (c *bigCounter) capturing() {
	c.olds = c.olds[:0]
	for _, q := range c.live {
		// A live state normally carries a materialized count, but the
		// invariant is load-bearing across CountStream.migrate, which
		// rebuilds the live set from a rewound round: tolerate a nil (zero)
		// count rather than panic on it.
		old := new(big.Int)
		if c.counts[q] != nil {
			old.Set(c.counts[q])
		}
		c.olds = append(c.olds, old)
	}
	n := len(c.live)
	for k := 0; k < n; k++ {
		q := c.live[k]
		for _, t := range c.a.Captures(q) {
			c.ensure(t.To)
			if c.counts[t.To] == nil {
				c.live = append(c.live, t.To)
			}
			c.add(t.To, c.olds[k])
		}
	}
}

func (c *bigCounter) reading(ch byte) {
	c.olds = c.olds[:0]
	for _, q := range c.live {
		old := c.counts[q]
		if old == nil {
			old = new(big.Int)
		}
		c.olds = append(c.olds, old)
		c.counts[q] = nil
	}
	c.nextLive = c.nextLive[:0]
	for k, q := range c.live {
		t, ok := c.a.Step(q, ch)
		if !ok {
			continue
		}
		c.ensure(t)
		if c.counts[t] == nil {
			c.nextLive = append(c.nextLive, t)
		}
		c.add(t, c.olds[k])
	}
	c.live, c.nextLive = c.nextLive, c.live
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
// (cmd/spanlint) enforces it. The arbitrary-precision fallback (feedBig)
// allocates by design and is waived at its call site.
func (s *CountStream) Feed(chunk []byte) {
	if s.closed {
		panic("core: CountStream.Feed after Close")
	}
	i, last := 0, 0
	for s.bc == nil && i < len(chunk) && len(s.c.live) > 0 {
		if s.gate.on {
			if q, ok := s.gate.scanState(s.c.live); ok {
				n := s.gate.trySkip(q, chunk[i:], i-last)
				last = i + n
				if n > 0 {
					i += n
					continue
				}
			}
		}
		s.c.capturing()
		s.c.reading(chunk[i])
		if s.c.overflow {
			// Reading moved the round's starting live list to nextLive.
			// feedBig replays the round at i; the skip attempt it repeats
			// there sees the same configuration and skips nothing.
			//spanlint:ignore hotalloc one-time switch to big.Int counts, entered only on the first uint64 overflow
			s.migrate(s.c.nextLive[:len(s.c.pre)], s.c.pre)
			break
		}
		i++
	}
	if s.bc != nil {
		//spanlint:ignore hotalloc big.Int arithmetic allocates by design; entered only after a uint64 overflow, never on the fast path
		s.feedBig(chunk, i, last)
	}
}

// Dead reports whether the live state set has drained: no partial run
// survives and no later byte can revive one, so the count is 0 whatever
// follows and callers may stop feeding.
func (s *CountStream) Dead() bool {
	if s.bc != nil {
		return len(s.bc.live) == 0
	}
	return len(s.c.live) == 0
}

// feedBig advances the arbitrary-precision counting pass over chunk from
// position i, with last the position after the previous skip attempt. It
// is the post-overflow continuation of Feed and allocates freely (big.Int
// arithmetic), which is why it lives outside the spanlint:hotpath contract.
func (s *CountStream) feedBig(chunk []byte, i, last int) {
	for i < len(chunk) && len(s.bc.live) > 0 {
		if s.gate.on {
			if q, ok := s.gate.scanState(s.bc.live); ok {
				n := s.gate.trySkip(q, chunk[i:], i-last)
				last = i + n
				if n > 0 {
					i += n
					continue
				}
			}
		}
		s.bc.capturing()
		s.bc.reading(chunk[i])
		i++
	}
}

// migrate switches to big arithmetic from the configuration where each
// live[k] carries counts[k] runs: the start of the round that overflowed,
// which the caller then replays. Every live state gets a materialized
// count — including zero-valued ones — establishing the bigCounter
// invariant "live ⟺ non-nil count", and a duplicate entry is dropped
// (total() sums per live entry, so a duplicate would double-count).
func (s *CountStream) migrate(live []int, counts []uint64) {
	bc := &bigCounter{a: s.c.a}
	for k, q := range live {
		bc.ensure(q)
		if bc.counts[q] == nil {
			bc.counts[q] = new(big.Int).SetUint64(counts[k])
			bc.live = append(bc.live, q)
		}
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
	if s.bc == nil {
		s.c.capturing()
		if !s.c.overflow {
			return
		}
		s.migrate(s.c.live[:len(s.c.pre)], s.c.pre)
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
	for _, q := range s.c.live {
		if s.c.a.Accepting(q) {
			total.Add(total, t.SetUint64(s.c.counts[q]))
		}
	}
	return total
}
