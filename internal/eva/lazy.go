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
// and never freezes it: a table entry or a capture list is computed from
// the subset construction on its first use and read from the table
// afterwards. Lazy shadows the table methods that read such entries, or
// state a fill grows, with ones that fill under its mutex, so a Lazy is
// safe for concurrent use: passes that share it contend only on their
// calls into it, which a warm pass makes only on a round-program memo
// miss — skips are decided by the pass's memo, without a call.
// StatesDiscovered reads an atomic counter and never locks. The fill
// paths (fill, caps) are Compiled methods and must never call a Lazy one:
// the mutex is not reentrant.
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

// StatesDiscovered returns how many subset states have been minted so far —
// the measure that makes the lazy-vs-strict trade-off visible. It is safe
// to call concurrently with evaluations: the count is an atomic mirror, so
// stats endpoints poll it without blocking (or being blocked by) a fill.
// Enforced by the lockorder analyzer (cmd/spanlint).
//
// spanlint:nolock
func (l *Lazy) StatesDiscovered() int { return int(l.sub.minted.Load()) }
