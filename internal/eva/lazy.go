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
// (Initial, Step, Captures, Accepting, Registry). It runs the subset
// construction of Determinize, over the same byte classes of src, and
// memoizes its transitions so repeated evaluations share work: each subset
// state owns one class-indexed row of K entries (K×4 bytes for K classes),
// and a memoized Step costs a lookup in an inline byte→class map and one
// load from the flat row table. It is not safe
// for concurrent use; wrap it per goroutine or materialize with
// Determinize for sharing. The sole exception is StatesDiscovered, which
// reads an atomic counter and may be called at any time from any goroutine
// — monitoring surfaces poll it without serializing against in-flight
// evaluations.
type Lazy struct {
	sub *subsets
	// letter holds one class-indexed row per minted state: letter[q*k+c]
	// is the det target of state q on the bytes of class c of src — ≥ 0 a
	// state id, −1 no transition, −2 not yet computed. A row costs k×4
	// bytes.
	letter []int32
	k      int
	// of is src's byte→class map, kept inline (as Compiled keeps its own)
	// so that a memoized Step is this one lookup plus the row load.
	of  [256]uint8
	sts []*lazyState

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
	captures []model.Capture // memoized on first request
	capsDone bool
	// acc is the acceleration record of the state, memoized on first
	// AccelSkip (the analysis itself mints states, like Step does).
	acc     accel
	accDone bool
}

// NewLazy returns a lazy determinizer over src, which must be sequential
// for downstream enumeration to be duplicate-free (as with Determinize).
func NewLazy(src *EVA) *Lazy {
	sub := newSubsets(src)
	l := &Lazy{sub: sub, k: len(sub.cls.rep), of: sub.cls.of}
	l.grow()
	return l
}

// grow gives every state the subset construction minted since the last
// call its memo row and record.
func (l *Lazy) grow() {
	for len(l.sts) < len(l.sub.members) {
		l.sts = append(l.sts, &lazyState{})
		for range l.k {
			l.letter = append(l.letter, -2)
		}
	}
	l.discovered.Store(int64(len(l.sts)))
}

// Initial returns the subset state {q0}.
func (l *Lazy) Initial() int { return 0 }

// Registry returns the variable registry.
func (l *Lazy) Registry() *model.Registry { return l.sub.src.reg }

// Accepting reports whether the subset contains a final state of the
// source automaton.
func (l *Lazy) Accepting(q int) bool { return l.sub.final[q] }

// NumClasses returns the number of byte classes a memo row is indexed by:
// those of the source automaton.
func (l *Lazy) NumClasses() int { return l.k }

// Step returns δ(q, c), computing and memoizing it on first use.
func (l *Lazy) Step(q int, c byte) (int, bool) {
	i := q*l.k + int(l.of[c])
	if t := l.letter[i]; t != -2 {
		return int(t), t >= 0
	}
	return l.fill(q, i)
}

// fill computes the memo entry i = q*k+class of Step's miss path.
func (l *Lazy) fill(q, i int) (int, bool) {
	t := l.sub.letter(q, i-q*l.k)
	l.grow()
	l.letter[i] = int32(t)
	return t, t >= 0
}

// Captures returns the extended variable transitions of subset state q,
// grouped by exact marker set, computing and memoizing them on first use.
func (l *Lazy) Captures(q int) []model.Capture {
	st := l.sts[q]
	if st.capsDone {
		return st.captures
	}
	sets, targets := l.sub.capGroups(q)
	for i, s := range sets {
		st.captures = append(st.captures, model.Capture{S: s, To: l.sub.intern(normalize(targets[i]))})
	}
	l.grow()
	st.capsDone = true
	return st.captures
}

// lazyStepper adapts Lazy to the acceleration analysis. Both methods mint
// states, so the analysis runs under the same single-goroutine (or
// facade-locked) discipline as Step and Captures.
type lazyStepper struct{ l *Lazy }

func (s lazyStepper) step(q int, b byte) (int, bool) { return s.l.Step(q, b) }
func (s lazyStepper) caps(q int) []model.Capture     { return s.l.Captures(q) }
func (s lazyStepper) classes() *classes              { return s.l.sub.cls }

// scanState returns the memoized findScanState anchor, -1 when none.
func (l *Lazy) scanState() int {
	if !l.scanQDone {
		l.scanQ = -1
		if len(l.sts) > 0 {
			l.scanQ = findScanState(lazyStepper{l}, l.Initial())
		}
		l.scanQDone = true
	}
	return l.scanQ
}

// accelRec returns q's memoized acceleration record, computing it on first
// use exactly like the transition memos. The literal analysis runs only at
// the scan-anchor state, where sparse scans spend their time.
func (l *Lazy) accelRec(q int) *accel {
	scanQ := l.scanState()
	st := l.sts[q]
	if !st.accDone {
		st.acc = analyzeAccel(lazyStepper{l}, q, q == scanQ)
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
	return !l.accelOff && l.accelRec(q).sink
}

// scanAccel returns the acceleration record of the scan anchor, nil when
// there is no anchor or acceleration is off. The analysis mints and
// memoizes the states it touches, which evaluation would otherwise mint at
// its first AccelSkip.
func (l *Lazy) scanAccel() *accel {
	if l.accelOff {
		return nil
	}
	if q := l.scanState(); q >= 0 {
		return l.accelRec(q)
	}
	return nil
}

// ScanLeaveBytes returns the set of bytes that can leave the scan-anchor
// configuration, when that anchor exists (see Compiled.ScanLeaveBytes).
func (l *Lazy) ScanLeaveBytes() (model.ByteSet, bool) {
	if a := l.scanAccel(); a != nil && a.mode != accelNone {
		return a.skip.Negate(), true
	}
	return model.ByteSet{}, false
}

// ScanLiteral returns the required literal anchored at the scan-anchor
// configuration, or "" when the forced-departure analysis found none (see
// Compiled.ScanLiteral).
func (l *Lazy) ScanLiteral() string {
	if a := l.scanAccel(); a != nil && a.mode == accelLiteral {
		return string(a.lit)
	}
	return ""
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
