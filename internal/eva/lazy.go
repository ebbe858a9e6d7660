package eva

import (
	"spanners/internal/model"
)

// Lazy is an on-the-fly determinizer: it exposes the deterministic subset
// automaton of a (sequential) eVA without materializing it, minting subset
// states only as the evaluation of a concrete document demands them. This
// realizes the closing remark of Section 4 of the paper — "all of these
// translations can be fed to Algorithm 1 on-the-fly, thus rarely needing to
// materialize the entire deterministic seVA" — and bounds the work by the
// subsets actually reachable on the documents seen, rather than the 2^n
// worst case.
//
// Lazy embeds the table of Compiled, indexed by the byte classes of src,
// and never freezes it: a table entry, a capture list or an acceleration
// record is computed from the subset construction on its first use and
// read from the table afterwards. Lazy shadows the table methods that read
// such entries (Step, Captures, AccelSkip, AccelSink) with filling ones;
// the promoted methods report the table as filled so far. It is not safe
// for concurrent use; the facade serializes it under a lock. The sole
// exception is StatesDiscovered, which reads an atomic counter and may be
// called at any time.
type Lazy struct{ Compiled }

// NewLazy returns a lazy determinizer over src, which must be sequential
// for downstream enumeration to be duplicate-free (as with Determinize).
func NewLazy(src *EVA) *Lazy { return &Lazy{*newTable(newSubsets(src), 1)} }

// Step returns δ(q, c), computing it on first use. Step and Captures
// repeat the lookups of step and caps, which are too large to inline, so
// that a computed entry costs no call beyond the interface dispatch.
func (l *Lazy) Step(q int, c byte) (int, bool) {
	i := q<<l.shift | int(l.cls.of[c])
	if t := l.next[i]; t != unknown {
		return int(t), t >= 0
	}
	return l.fill(i)
}

// Captures returns the extended variable transitions of subset state q,
// one per exact marker set in marker-set order, computing them on first
// use.
func (l *Lazy) Captures(q int) []model.Capture {
	if cs := l.captures[q]; cs != nil {
		return cs
	}
	return l.caps(q)
}

// AccelSkip is Compiled.AccelSkip, computing q's record on first use. It
// carries no spanlint:hotpath annotation: minting allocates by design, so
// the zero-alloc contract holds only for the strict (Compiled) path.
func (l *Lazy) AccelSkip(q int, chunk []byte) int {
	if a := l.record(q); a != nil {
		return a.find(chunk)
	}
	return 0
}

// AccelSink is Compiled.AccelSink, computing q's record on first use.
func (l *Lazy) AccelSink(q int) bool {
	a := l.record(q)
	return a != nil && a.sink
}

// StatesDiscovered returns how many subset states have been minted so far —
// the measure that makes the lazy-vs-strict trade-off visible. It is safe
// to call concurrently with evaluations: the count is an atomic mirror, so
// stats endpoints poll it without blocking (or being blocked by) the
// evaluation lock. Enforced by the lockorder analyzer (cmd/spanlint).
//
// spanlint:nolock
func (l *Lazy) StatesDiscovered() int { return int(l.sub.minted.Load()) }
