package eva

import (
	"sync"

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
// such entries, or state a fill grows, with ones that fill under its
// mutex, so a Lazy is safe for concurrent use: passes that share it
// contend only on their calls into it, which a warm pass makes only on a
// round-program memo miss or a skip attempt. A computed capture list or
// acceleration record never changes, so AccelSkip searches its chunk
// outside the lock. StatesDiscovered reads an atomic counter and never
// locks. The fill paths (fill, caps, record, analyzeAccel) are Compiled
// methods and must never call a Lazy one: the mutex is not reentrant.
type Lazy struct {
	mu sync.Mutex
	Compiled
}

// NewLazy returns a lazy determinizer over src, which must be sequential
// for downstream enumeration to be duplicate-free (as with Determinize).
func NewLazy(src *EVA) *Lazy { return &Lazy{Compiled: *newTable(newSubsets(src), 1)} }

// Step returns δ(q, c), computing it on first use.
func (l *Lazy) Step(q int, c byte) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.step(q, c)
}

// Captures returns the extended variable transitions of subset state q,
// one per exact marker set in marker-set order, computing them on first
// use.
func (l *Lazy) Captures(q int) []model.Capture {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.caps(q)
}

// Accepting reports whether q ∈ F.
func (l *Lazy) Accepting(q int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepting[q]
}

// NumStates returns how many subset states the table holds so far.
func (l *Lazy) NumStates() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Compiled.NumStates()
}

// TableBytes returns the size of the table filled so far; see
// Compiled.TableBytes.
func (l *Lazy) TableBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Compiled.TableBytes()
}

// AccelSkip is Compiled.AccelSkip, computing q's record on first use. It
// carries no spanlint:hotpath annotation: minting allocates by design, so
// the zero-alloc contract holds only for the strict (Compiled) path.
func (l *Lazy) AccelSkip(q int, chunk []byte) int {
	l.mu.Lock()
	a := l.record(q)
	l.mu.Unlock()
	if a != nil {
		return a.find(chunk)
	}
	return 0
}

// AccelSink is Compiled.AccelSink, computing q's record on first use.
func (l *Lazy) AccelSink(q int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.record(q)
	return a != nil && a.sink
}

// ScanLeaveBytes is Compiled.ScanLeaveBytes, analyzing the scan anchor
// on first use.
func (l *Lazy) ScanLeaveBytes() (model.ByteSet, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Compiled.ScanLeaveBytes()
}

// ScanLiteral is Compiled.ScanLiteral, analyzing the scan anchor on first
// use.
func (l *Lazy) ScanLiteral() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.Compiled.ScanLiteral()
}

// StatesDiscovered returns how many subset states have been minted so far —
// the measure that makes the lazy-vs-strict trade-off visible. It is safe
// to call concurrently with evaluations: the count is an atomic mirror, so
// stats endpoints poll it without blocking (or being blocked by) a fill.
// Enforced by the lockorder analyzer (cmd/spanlint).
//
// spanlint:nolock
func (l *Lazy) StatesDiscovered() int { return int(l.sub.minted.Load()) }
