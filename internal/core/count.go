package core

import (
	"math/big"
)

// CountStream is Algorithm 3 (appendix C): it computes |⟦A⟧d| for a
// deterministic sequential eVA in time O(|A| × |d|) by replacing each node
// list of Algorithm 1 with the number of partial runs reaching the state.
// Because the automaton is sequential (every partial run encodes a valid
// partial mapping) and deterministic (each partial run encodes a distinct
// partial mapping), the run count per state equals the partial-mapping
// count, and summing over the final states yields |⟦A⟧d|. Feed advances
// the per-slot counts chunk by chunk and Close runs the final Capturing,
// so the document is never materialized (counting, unlike enumeration,
// needs no document bytes).
//
// The pass replays the round programs of Algorithm 1 (see memo) on counts:
// an op adds its source slot's starting count to its middle slot, and a
// move adds a middle slot's count to its next slot. A capture whose target
// dies in the same round adds runs that never reach the end, so the
// pruning leaves every count of a live state unchanged.
//
// Counts run in uint64 — the paper's uniform-cost RAM model — until the
// first overflow. The round (Capturing and Reading over one byte) that
// overflows is replayed in arbitrary-precision arithmetic from its
// starting counts, which a uint64 round leaves untouched until it
// completes, and the stream stays in big mode from then on. A CountStream
// is not goroutine-safe.
type CountStream struct {
	m    memo
	gate accelGate
	// cur is the live configuration and counts[k] the number of partial
	// runs reaching the state in its slot k. Membership is the slot, not
	// counts[k] != 0: once arithmetic has wrapped, a live state can carry a
	// count of exactly zero.
	cur    int32
	counts []uint64
	// mid and next are the middle and next configurations' counts while a
	// round runs.
	mid, next []uint64
	// big replaces counts once a round overflowed: nil until then.
	big []*big.Int
	// After Close, fin holds the middle configuration's counts (big holds
	// them in big mode) and finals lists its accepting slots.
	fin    []uint64
	finals []move
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
// the previous pass, and its memo when a is the automaton the memo was
// built for, so a reused CountStream counts without allocating once they
// have grown to the automaton's size.
func (s *CountStream) Reset(a Automaton) {
	s.big, s.fin, s.finals, s.closed = nil, nil, nil, false
	s.m.use(a)
	s.cur = s.m.start()
	s.counts = append(s.counts[:0], 1)
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
	m := &s.m
	s.gate.next(len(chunk))
	i := 0
	for i < len(chunk) && s.cur != deadConfig {
		c := s.cur
		x := m.trans[int(c)*m.stride+int(m.of[chunk[i]])]
		if x == 0 {
			x = m.build(c, int(m.of[chunk[i]]), chunk[i])
		}
		i++
		if x&relabel != 0 {
			s.cur = int32(x &^ relabel)
			// The byte was inert: skip the inert bytes after it, as
			// Stream.process does.
			if s.cur == c && s.gate.on {
				i += s.gate.skip(m, s.cur, chunk, i)
			}
		} else if p := &m.progs[x-1]; s.big == nil && s.round64(p) {
			s.cur = p.next
		} else {
			//spanlint:ignore hotalloc big.Int arithmetic allocates by design; entered only once a uint64 count overflowed, never on the fast path
			s.bigRound(p)
			s.cur = p.next
		}
	}
}

// round64 runs p in uint64 arithmetic. It reports false, leaving counts
// as they were, when an addition overflows.
func (s *CountStream) round64(p *program) bool {
	from, ok := s.capture64(p)
	if !ok {
		return false
	}
	s.next = s.next[:0]
	for _, mv := range s.m.moves[p.mvLo:p.mvHi] {
		if int(mv.to) == len(s.next) {
			s.next = append(s.next, from[mv.from]) // the slot opens
			continue
		}
		n, carry := addOverflow(s.next[mv.to], from[mv.from])
		if carry {
			return false
		}
		s.next[mv.to] = n
	}
	s.counts, s.next = s.next, s.counts
	return true
}

// capture64 runs the ops of p in uint64 arithmetic and returns the middle
// counts: counts itself when p has no op. It reports false on overflow.
func (s *CountStream) capture64(p *program) ([]uint64, bool) {
	if p.opLo == p.opHi {
		return s.counts, true
	}
	mid := widen(s.mid, s.counts, int(p.nMid))
	s.mid = mid
	for _, o := range s.m.ops[p.opLo:p.opHi] {
		n, carry := addOverflow(mid[o.mid], s.counts[o.src])
		if carry {
			return nil, false
		}
		mid[o.mid] = n
	}
	return mid, true
}

func addOverflow(a, b uint64) (uint64, bool) {
	s := a + b
	return s, s < a
}

// Dead reports whether the live state set has drained: no partial run
// survives and no later byte can revive one, so the count is 0 whatever
// follows and callers may stop feeding.
func (s *CountStream) Dead() bool { return s.cur == deadConfig }

// bigRound runs p in big arithmetic, first converting the round's
// starting counts when the stream is still in uint64 mode.
func (s *CountStream) bigRound(p *program) {
	from := s.bigCapture(p)
	next := make([]*big.Int, p.nNext)
	for k := range next {
		next[k] = new(big.Int)
	}
	for _, mv := range s.m.moves[p.mvLo:p.mvHi] {
		next[mv.to].Add(next[mv.to], from[mv.from])
	}
	s.big = next
}

// bigCapture is capture64 in big arithmetic.
func (s *CountStream) bigCapture(p *program) []*big.Int {
	if s.big == nil {
		s.migrate()
	}
	if p.opLo == p.opHi {
		return s.big
	}
	mid := make([]*big.Int, p.nMid)
	for k := range mid {
		mid[k] = new(big.Int)
		if k < len(s.big) {
			mid[k].Set(s.big[k])
		}
	}
	for _, o := range s.m.ops[p.opLo:p.opHi] {
		mid[o.mid].Add(mid[o.mid], s.big[o.src])
	}
	return mid
}

// migrate switches to big arithmetic: the current counts convert.
func (s *CountStream) migrate() {
	s.big = make([]*big.Int, len(s.counts))
	for k, n := range s.counts {
		s.big[k] = new(big.Int).SetUint64(n)
	}
}

// Close runs the final Capturing. It is idempotent; Count and CountBig call
// it implicitly.
func (s *CountStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	p := s.m.closing(s.cur)
	s.finals = s.m.moves[p.mvLo:p.mvHi]
	if s.big == nil {
		if fin, ok := s.capture64(p); ok {
			s.fin = fin
			return
		}
	}
	s.big = s.bigCapture(p)
}

// total sums the final counts of the accepting slots; exact is false when
// the sum overflows uint64 (it is then the low 64 bits of the true total).
func (s *CountStream) total() (count uint64, exact bool) {
	exact = true
	for _, f := range s.finals {
		var carry bool
		count, carry = addOverflow(count, s.fin[f.from])
		exact = exact && !carry
	}
	return count, exact
}

// bigTotal sums the final big counts of the accepting slots.
func (s *CountStream) bigTotal() *big.Int {
	total := new(big.Int)
	for _, f := range s.finals {
		total.Add(total, s.big[f.from])
	}
	return total
}

// Count returns |⟦A⟧d| for the document fed so far. exact is false only
// when |⟦A⟧d| does not fit in uint64; count is then its low 64 bits, and
// CountBig has the full value.
func (s *CountStream) Count() (count uint64, exact bool) {
	s.Close()
	if s.big != nil {
		t := s.bigTotal()
		if t.IsUint64() {
			return t.Uint64(), true
		}
		return low64(t), false
	}
	return s.total()
}

// AccelSkippedBytes returns how many document bytes the pass bulk-skipped
// so far (0 when the automaton carries no Accelerator).
func (s *CountStream) AccelSkippedBytes() int64 { return s.gate.skipped }

// AccelFellBack reports whether the effectiveness fallback disabled
// skipping for the rest of the document.
func (s *CountStream) AccelFellBack() bool { return s.gate.fellBack }

// low64 returns the low 64 bits of a non-negative big integer.
func low64(t *big.Int) uint64 {
	mask := new(big.Int).SetUint64(^uint64(0))
	return new(big.Int).And(t, mask).Uint64()
}

// CountBig returns the exact |⟦A⟧d| with arbitrary-precision arithmetic.
func (s *CountStream) CountBig() *big.Int {
	s.Close()
	if s.big != nil {
		return s.bigTotal()
	}
	if n, exact := s.total(); exact {
		return new(big.Int).SetUint64(n)
	}
	// The totals sum itself overflowed even though every per-state count
	// fit; re-sum the final counts in big arithmetic.
	total := new(big.Int)
	var t big.Int
	for _, f := range s.finals {
		total.Add(total, t.SetUint64(s.fin[f.from]))
	}
	return total
}
