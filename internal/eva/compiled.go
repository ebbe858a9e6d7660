package eva

import (
	"errors"
	"fmt"
	"math/bits"

	"spanners/internal/model"
)

// Compiled is the dense-dispatch form of a deterministic eVA: per state a
// class-indexed next-state row, flattened into one contiguous table, so
// that a letter transition costs two array loads (byte→class, then
// class→state) instead of EVA.Step's linear scan over class edges. The
// automaton is immutable after construction and therefore safe for
// concurrent evaluation — the representation the compile-once/
// evaluate-many facade hands out for the strict path.
//
// Bytes that no letter edge distinguishes share a column: the 256 byte
// values collapse into equivalence classes (a single shared 256→class
// map), and each state stores one row per class rather than one per byte.
// The classes come from byteClasses over the automaton's own edges; for
// the output of Determinize they are the source eVA's classes, merged
// wherever no det edge separates them. Patterns over ASCII-ish alphabets
// typically need a few dozen classes, keeping the table cache-resident. The row stride is the class count rounded up to a power
// of two so the hot-path index stays a shift and an or.
//
// Compiled also carries the per-state acceleration records (see accel.go):
// states whose self-loop covers most bytes answer AccelSkip with a
// memchr-class search for the next byte that can change the live
// configuration, and the initial state may carry a required literal for
// bytes.Index jumps.
type Compiled struct {
	reg       *model.Registry
	initial   int
	accepting []bool
	// cls maps each byte to its equivalence class; bytes in the same class
	// are indistinguishable to every letter edge of the automaton.
	cls classes
	// shift is log2 of the row stride; next[q<<shift|class] is δ(q, class),
	// or -1 when undefined.
	shift    uint
	next     []int32
	captures [][]model.Capture

	// accels holds the per-state acceleration records when the automaton
	// is small enough for eager analysis; otherwise sparse holds records
	// for the initial and scan-anchor states only (those dominate
	// sparse-corpus scans). scanState is the findScanState anchor, -1 when
	// none exists.
	accels    []accel
	sparse    map[int]*accel
	scanState int
	accelOff  bool
}

// CompileDense builds the dense form of a. It fails unless a validates and
// is deterministic — with overlapping class edges the table could only keep
// one target, silently changing the semantics.
func (a *EVA) CompileDense() (*Compiled, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if !a.IsDeterministic() {
		return nil, errors.New("eva: CompileDense requires a deterministic automaton")
	}
	n := a.NumStates()
	if n > 1<<23 {
		return nil, fmt.Errorf("eva: CompileDense: %d states exceed the dense-table limit", n)
	}
	c := &Compiled{
		reg:       a.reg,
		initial:   a.initial,
		accepting: append([]bool(nil), a.final...),
		captures:  make([][]model.Capture, n),
	}
	c.cls = *byteClasses(a)
	stride := 1
	for stride < len(c.cls.rep) {
		stride <<= 1
	}
	c.shift = uint(bits.TrailingZeros(uint(stride)))
	c.next = make([]int32, n*stride)
	for i := range c.next {
		c.next[i] = -1
	}
	for q := 0; q < n; q++ {
		row := c.next[q<<c.shift : q<<c.shift+stride]
		for _, e := range a.letters[q] {
			for k, b := range c.cls.rep {
				if e.Class.Has(b) {
					row[k] = int32(e.To)
				}
			}
		}
		c.captures[q] = append([]model.Capture(nil), a.captures[q]...)
	}
	c.scanState = findScanState(compiledStepper{c}, c.initial)
	if n <= maxAccelStates {
		c.accels = make([]accel, n)
		for q := 0; q < n; q++ {
			c.accels[q] = analyzeAccel(compiledStepper{c}, q, q == c.scanState)
		}
	} else {
		c.sparse = make(map[int]*accel)
		if a := analyzeAccel(compiledStepper{c}, c.initial, c.initial == c.scanState); a.mode != accelNone {
			c.sparse[c.initial] = &a
		}
		if c.scanState >= 0 && c.scanState != c.initial {
			if a := analyzeAccel(compiledStepper{c}, c.scanState, true); a.mode != accelNone {
				c.sparse[c.scanState] = &a
			}
		}
	}
	return c, nil
}

// compiledStepper adapts Compiled to the acceleration analysis.
type compiledStepper struct{ c *Compiled }

func (s compiledStepper) step(q int, b byte) (int, bool) { return s.c.Step(q, b) }
func (s compiledStepper) caps(q int) []model.Capture     { return s.c.Captures(q) }
func (s compiledStepper) classes() *classes              { return &s.c.cls }

// Initial returns the initial state.
func (c *Compiled) Initial() int { return c.initial }

// Step returns δ(q, ch): a class lookup and a table load.
//
// spanlint:hotpath — the dense-dispatch inner step; hotalloc
// (cmd/spanlint) keeps it allocation-free.
func (c *Compiled) Step(q int, ch byte) (int, bool) {
	t := c.next[q<<c.shift|int(c.cls.of[ch])]
	return int(t), t >= 0
}

// Captures returns the extended variable transitions leaving q; shared
// slice, do not mutate.
func (c *Compiled) Captures(q int) []model.Capture { return c.captures[q] }

// Accepting reports whether q ∈ F.
func (c *Compiled) Accepting(q int) bool { return c.accepting[q] }

// Registry returns the variable registry of the automaton.
func (c *Compiled) Registry() *model.Registry { return c.reg }

// NumStates returns |Q|.
func (c *Compiled) NumStates() int { return len(c.accepting) }

// NumClasses returns the number of byte equivalence classes the transition
// table is indexed by (≤ 256; the per-state row stride is the next power
// of two).
func (c *Compiled) NumClasses() int { return len(c.cls.rep) }

// TableBytes returns the size of the dense transition table in bytes,
// including the shared byte→class map.
func (c *Compiled) TableBytes() int { return len(c.next)*4 + len(c.cls.of) }

// accelFor returns the acceleration record of q, or nil when q is not
// accelerated (or acceleration is disabled on this instance).
func (c *Compiled) accelFor(q int) *accel {
	if c.accelOff {
		return nil
	}
	if c.accels != nil {
		if a := &c.accels[q]; a.mode != accelNone {
			return a
		}
		return nil
	}
	return c.sparse[q]
}

// AccelSkip returns how many leading bytes of chunk are provably inert
// while the live configuration is exactly the singleton {q}: processing
// them would leave the configuration untouched, so the caller may advance
// its position counter past them wholesale. 0 means no skip.
//
// spanlint:hotpath — the prefilter gate sits inside the scan loop;
// hotalloc (cmd/spanlint) keeps it allocation-free (the record search
// runs on allowlisted bytes primitives).
func (c *Compiled) AccelSkip(q int, chunk []byte) int {
	if a := c.accelFor(q); a != nil {
		return a.find(chunk)
	}
	return 0
}

// AccelSink reports whether every byte is inert for q: the state self-loops
// on all 256 bytes and none of its capture spawns can survive any byte. A
// sink's list rides along unchanged through any skip, so the evaluator may
// treat live configurations of the form {q'} ∪ sinks as the singleton {q'}
// — the shape `.*pat.*` scans settle into once a match has completed and
// the accepting tail stays live forever.
func (c *Compiled) AccelSink(q int) bool {
	a := c.accelFor(q)
	return a != nil && a.sink
}

// AccelEnabled reports whether any state of this instance answers
// AccelSkip with a non-trivial search.
func (c *Compiled) AccelEnabled() bool { return c.AcceleratedStates() > 0 }

// AcceleratedStates returns how many states carry an acceleration record.
func (c *Compiled) AcceleratedStates() int {
	if c.accelOff {
		return 0
	}
	if c.accels == nil {
		return len(c.sparse)
	}
	n := 0
	for i := range c.accels {
		if c.accels[i].mode != accelNone {
			n++
		}
	}
	return n
}

// ScanLeaveBytes returns the set of bytes that can leave the scan-anchor
// configuration (the initial configuration followed through its
// dead-prefix lead-in), when that anchor exists (the second return reports
// it). Every byte outside the set is inert while no match is in progress.
func (c *Compiled) ScanLeaveBytes() (model.ByteSet, bool) {
	if c.scanState >= 0 {
		if a := c.accelFor(c.scanState); a != nil {
			return a.skip.Negate(), true
		}
	}
	return model.ByteSet{}, false
}

// ScanLiteral returns the required literal anchored at the scan-anchor
// configuration, or "" when the forced-departure analysis found none.
func (c *Compiled) ScanLiteral() string {
	if c.scanState >= 0 {
		if a := c.accelFor(c.scanState); a != nil && a.mode == accelLiteral {
			return string(a.lit)
		}
	}
	return ""
}

// WithoutAccel returns a view of the automaton with acceleration disabled:
// AccelSkip always answers 0 and AccelEnabled false. The view shares the
// immutable tables with the receiver. It exists for the facade's
// WithoutPrefilter option and for differential testing of the scan path.
func (c *Compiled) WithoutAccel() *Compiled {
	d := *c
	d.accelOff = true
	return &d
}
