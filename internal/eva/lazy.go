package eva

import (
	"sync/atomic"

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
// Lazy implements the same automaton interface as a deterministic *EVA
// (Initial, Step, Captures, Accepting, Registry). It memoizes transitions,
// so repeated evaluations share work. It is not safe for concurrent use;
// wrap it per goroutine or materialize with Determinize for sharing. The
// sole exception is StatesDiscovered, which reads an atomic counter and may
// be called at any time from any goroutine — monitoring surfaces poll it
// without serializing against in-flight evaluations.
type Lazy struct {
	src   *EVA
	index map[string]int
	sts   []*lazyState

	// accelOff disables AccelSkip on this instance (the facade's
	// WithoutPrefilter option and differential tests). scanQ memoizes the
	// findScanState anchor (-1 when none); scanQDone guards its first
	// computation.
	accelOff  bool
	scanQ     int
	scanQDone bool

	// discovered mirrors len(sts) behind an atomic so StatesDiscovered
	// never has to touch the memo tables that evaluations mutate.
	// spanlint:atomic
	discovered atomic.Int64
}

type lazyState struct {
	members   []int
	accepting bool
	captures  []model.Capture // memoized on first request
	capsDone  bool
	// letter[c] is the det target for byte c: ≥ 0 a state id, −1 no
	// transition, −2 not yet computed.
	letter [256]int32
	// acc is the acceleration record of the state, memoized on first
	// AccelSkip (the analysis itself mints states, like Step does).
	acc     accel
	accDone bool
}

// NewLazy returns a lazy determinizer over src, which must be sequential
// for downstream enumeration to be duplicate-free (as with Determinize).
func NewLazy(src *EVA) *Lazy {
	l := &Lazy{src: src, index: make(map[string]int)}
	if src.initial >= 0 {
		l.intern([]int{src.initial})
	}
	return l
}

func (l *Lazy) intern(set []int) int {
	key := subsetKey(set)
	if id, ok := l.index[key]; ok {
		return id
	}
	st := &lazyState{members: set}
	for i := range st.letter {
		st.letter[i] = -2
	}
	for _, q := range set {
		if l.src.final[q] {
			st.accepting = true
			break
		}
	}
	l.sts = append(l.sts, st)
	id := len(l.sts) - 1
	l.index[key] = id
	l.discovered.Store(int64(len(l.sts)))
	return id
}

// Initial returns the subset state {q0}.
func (l *Lazy) Initial() int { return 0 }

// Registry returns the variable registry.
func (l *Lazy) Registry() *model.Registry { return l.src.reg }

// Accepting reports whether the subset contains a final state of the
// source automaton.
func (l *Lazy) Accepting(q int) bool { return l.sts[q].accepting }

// Step returns δ(q, c), computing and memoizing it on first use.
func (l *Lazy) Step(q int, c byte) (int, bool) {
	st := l.sts[q]
	if t := st.letter[c]; t != -2 {
		return int(t), t >= 0
	}
	var to []int
	for _, m := range st.members {
		for _, e := range l.src.letters[m] {
			if e.Class.Has(c) {
				to = append(to, e.To)
			}
		}
	}
	if len(to) == 0 {
		st.letter[c] = -1
		return 0, false
	}
	id := l.intern(normalize(to))
	// Re-fetch st: intern may have grown l.sts, but st is a pointer, so
	// only the slice header changed; the pointed-to state is stable.
	st.letter[c] = int32(id)
	return id, true
}

// Captures returns the extended variable transitions of subset state q,
// grouped by exact marker set, computing and memoizing them on first use.
func (l *Lazy) Captures(q int) []model.Capture {
	st := l.sts[q]
	if st.capsDone {
		return st.captures
	}
	capTargets := make(map[model.Set][]int)
	var order []model.Set
	for _, m := range st.members {
		for _, e := range l.src.captures[m] {
			if _, ok := capTargets[e.S]; !ok {
				order = append(order, e.S)
			}
			capTargets[e.S] = append(capTargets[e.S], e.To)
		}
	}
	for _, s := range order {
		st.captures = append(st.captures, model.Capture{S: s, To: l.intern(normalize(capTargets[s]))})
	}
	st.capsDone = true
	return st.captures
}

// lazyStepper adapts Lazy to the acceleration analysis. Both methods mint
// states, so the analysis runs under the same single-goroutine (or
// facade-locked) discipline as Step and Captures.
type lazyStepper struct{ l *Lazy }

func (s lazyStepper) step(q int, b byte) (int, bool) { return s.l.Step(q, b) }
func (s lazyStepper) caps(q int) []model.Capture     { return s.l.Captures(q) }

// accelRec returns q's memoized acceleration record, computing it on first
// use exactly like the transition memos. The literal analysis runs only at
// the scan-anchor state, where sparse scans spend their time.
func (l *Lazy) accelRec(q int) *accel {
	if !l.scanQDone {
		l.scanQ = findScanState(lazyStepper{l}, l.Initial())
		l.scanQDone = true
	}
	st := l.sts[q]
	if !st.accDone {
		st.acc = analyzeAccel(lazyStepper{l}, q, q == l.scanQ)
		st.accDone = true
	}
	return &st.acc
}

// AccelSkip returns how many leading bytes of chunk are provably inert
// while the live configuration is exactly the singleton {q} (see
// Compiled.AccelSkip). Like Step it mints and memoizes on first use and is
// not safe for concurrent use. Unlike Compiled.AccelSkip it carries no
// spanlint:hotpath annotation: minting and memoizing allocate by design,
// so the zero-alloc contract holds only for the strict (Compiled) path.
func (l *Lazy) AccelSkip(q int, chunk []byte) int {
	if l.accelOff {
		return 0
	}
	a := l.accelRec(q)
	if a.mode == accelNone {
		return 0
	}
	return a.find(chunk)
}

// AccelSink reports whether every byte is inert for q (see
// Compiled.AccelSink). Like AccelSkip it may mint states and memoizes the
// per-state record, so it follows the same single-goroutine discipline.
func (l *Lazy) AccelSink(q int) bool {
	if l.accelOff {
		return false
	}
	a := l.accelRec(q)
	return a.mode != accelNone && a.skip.Len() == 256
}

// AccelEnabled reports whether AccelSkip may answer non-zero on this
// instance. The lazy determinizer cannot enumerate its states up front, so
// this is an optimistic "acceleration is on", not "some state accelerates".
func (l *Lazy) AccelEnabled() bool { return !l.accelOff }

// DisableAccel turns AccelSkip into a constant 0 on this instance.
func (l *Lazy) DisableAccel() { l.accelOff = true }

// StatesDiscovered returns how many subset states have been minted so far —
// the measure that makes the lazy-vs-strict trade-off visible in the
// experiments. Unlike every other method it is safe to call concurrently
// with evaluations: the count is kept in an atomic mirror, so stats
// endpoints can poll it without blocking (or being blocked by) the
// evaluation lock. Enforced by the lockorder analyzer (cmd/spanlint).
//
// spanlint:nolock
func (l *Lazy) StatesDiscovered() int { return int(l.discovered.Load()) }
