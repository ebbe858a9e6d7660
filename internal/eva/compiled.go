package eva

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"spanners/internal/model"
)

// maxDenseStates is the dense-table state limit: Compile stops minting
// subsets there, and CompileDense rejects larger automata.
var maxDenseStates = 1 << 23

// unknown marks a table entry that a filling table has not computed yet.
const unknown = -2

// Compiled is the class-indexed transition table of a deterministic eVA,
// the one table both determinization modes evaluate. Each state owns a
// next-state row indexed by byte class, flattened into one contiguous
// slice, so a letter transition costs two array loads (byte→class, then
// class→state) instead of EVA.Step's linear scan over class edges. Beside
// the rows sit the per-state finality and capture transitions.
//
// The subset construction (subsets) fills the table: Lazy fills an entry
// the first time evaluation asks for it; Compile fills every reachable one
// and then freezes the table, which is immutable from then on and
// therefore safe for concurrent evaluation — the strict path of the
// compile-once/evaluate-many facade.
//
// Bytes that no letter edge distinguishes share a column behind one
// shared 256→class map. A filling table is indexed by the classes of the
// source eVA; freezing merges the columns no row separates, which leaves
// exactly the classes of the deterministic automaton's own edges —
// typically a few dozen, keeping the table cache-resident. The row stride
// is the class count rounded up to a power of two so the hot-path index
// stays a shift and an or.
type Compiled struct {
	reg       *model.Registry
	initial   int
	accepting []bool
	cls       classes // byte → column
	// shift is log2 of the row stride; next[q<<shift|class] is δ(q, class):
	// a state id, -1 when undefined, unknown while not computed.
	shift uint
	next  []int32
	// captures[q] is nil until computed; a computed empty list is non-nil.
	captures [][]model.Capture
	// accelOff turns off the scan loops' skipping of inert bytes.
	accelOff bool
	// sub computes the missing entries of a filling table; nil once frozen.
	sub *subsets
}

// newTable returns the table that sub fills, holding sub's states so far,
// with room for rows states.
func newTable(sub *subsets, rows int) *Compiled {
	c := &Compiled{
		reg:     sub.src.reg,
		initial: min(sub.src.initial, 0), // {q0} is subset 0
		cls:     *sub.cls,
		shift:   strideShift(len(sub.cls.rep)),
		sub:     sub,
	}
	c.accepting = make([]bool, 0, rows)
	c.captures = make([][]model.Capture, 0, rows)
	c.next = make([]int32, 0, rows<<c.shift)
	c.grow()
	return c
}

// strideShift returns log2 of the row stride for k classes: k rounded up
// to a power of two.
func strideShift(k int) uint { return uint(bits.Len(uint(k - 1))) }

// RowStride returns the number of entries a table row takes for k byte
// classes.
func RowStride(k int) int { return 1 << strideShift(k) }

// grow gives every state the subset construction minted since the last
// call its finality, a row of unknown entries, and an empty capture
// slot.
func (c *Compiled) grow() {
	have, n := len(c.accepting), c.sub.count()
	if have == n {
		return
	}
	c.accepting = append(c.accepting, c.sub.final[have:n]...)
	c.captures = append(c.captures, make([][]model.Capture, n-have)...)
	rows := len(c.next)
	c.next = append(c.next, make([]int32, (n-have)<<c.shift)...)
	for i := rows; i < len(c.next); i++ {
		c.next[i] = unknown
	}
}

// step is Step on a table that may still fill: an unknown entry is
// computed from the subset construction first.
func (c *Compiled) step(q int, b byte) (int, bool) {
	i := q<<c.shift | int(c.cls.of[b])
	if t := c.next[i]; t != unknown {
		return int(t), t >= 0
	}
	return c.fill(i)
}

// fill computes the table entry i = q<<shift|class and returns it as step
// does.
func (c *Compiled) fill(i int) (int, bool) {
	t := c.sub.letter(i>>c.shift, i&(1<<c.shift-1))
	c.grow()
	c.next[i] = int32(t)
	return t, t >= 0
}

// caps returns the capture transitions of q, computing them first on a
// filling table.
func (c *Compiled) caps(q int) []model.Capture {
	if cs := c.captures[q]; cs != nil || c.sub == nil {
		return cs
	}
	cs := c.sub.captures(q)
	c.grow()
	c.captures[q] = cs
	return cs
}

// fillAll computes every entry reachable from the initial state. It
// expands the states in the order they are minted, each one's capture
// transitions (in marker-set order) before its letter transitions (in
// class order); that order is Determinize's state numbering. It stops
// early when the construction reaches its state limit.
func (c *Compiled) fillAll() {
	for q := 0; q < len(c.accepting) && !c.sub.over; q++ {
		c.caps(q)
		for i := q << c.shift; i < q<<c.shift+len(c.cls.rep); i++ {
			c.fill(i)
		}
	}
}

// Compile determinizes a into a frozen dense table without building the
// deterministic eVA: it fills the table of a's subset construction to a
// fixpoint, numbering the states as Determinize does, and freezes it. It
// fails when a has no initial state, and as soon as the construction
// would mint a state past the dense-table limit.
func (a *EVA) Compile() (*Compiled, error) { return compile(newSubsets(a)) }

func compile(sub *subsets) (*Compiled, error) {
	if sub.count() == 0 {
		return nil, errors.New("eva: Compile: the automaton has no initial state")
	}
	sub.limit = maxDenseStates
	// A deterministic automaton typically has about as many states as its
	// source, which sizes the rows.
	c := newTable(sub, min(sub.src.NumStates(), maxDenseStates))
	c.fillAll()
	if sub.over {
		return nil, fmt.Errorf("eva: Compile: more than %d states exceed the dense-table limit", sub.limit)
	}
	c.freeze()
	return c, nil
}

// CompileDense builds the dense table of a, keeping a's state ids. It fails
// unless a validates and is deterministic — with overlapping class edges
// the table could only keep one target, silently changing the semantics.
func (a *EVA) CompileDense() (*Compiled, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if !a.IsDeterministic() {
		return nil, errors.New("eva: CompileDense requires a deterministic automaton")
	}
	n := a.NumStates()
	if n > maxDenseStates {
		return nil, fmt.Errorf("eva: CompileDense: %d states exceed the dense-table limit", n)
	}
	c := &Compiled{
		reg:       a.reg,
		initial:   a.initial,
		accepting: slices.Clone(a.final),
		cls:       *byteClasses(a),
		captures:  make([][]model.Capture, n),
	}
	c.shift = strideShift(len(c.cls.rep))
	c.next = make([]int32, n<<c.shift)
	for q := range n {
		for k, b := range c.cls.rep {
			t := int32(-1)
			if to, ok := a.Step(q, b); ok {
				t = int32(to)
			}
			c.next[q<<c.shift|k] = t
		}
		c.captures[q] = slices.Clone(a.captures[q])
	}
	c.freeze()
	return c, nil
}

// freeze finishes a filled table for sharing: it drops the subset
// construction and merges the columns no row separates.
func (c *Compiled) freeze() {
	c.sub = nil
	c.mergeColumns()
}

// mergeColumns merges the columns that no row separates and rebuilds the
// table at the merged stride. Two classes share a column of the result iff
// every state steps both to the same target, which is exactly when no
// letter edge of the deterministic automaton separates them: the result's
// classes are byteClasses of that automaton, numbered in order of their
// smallest byte.
func (c *Compiled) mergeColumns() {
	n, k := c.NumStates(), len(c.cls.rep)
	// Columns are compared through a hash of their entries first; hashes
	// and reps are indexed by merged column.
	var (
		reps   = make([]int, 0, k) // reps[m] is the first old column of merged column m
		hashes = make([]uint32, 0, k)
		cls    = classes{rep: make([]byte, 0, k), set: make([]model.ByteSet, 0, k)}
		to     [256]uint8 // old column → merged column
	)
	for j := range k {
		h := uint32(n)
		for q := range n {
			h = (h ^ uint32(c.next[q<<c.shift|j])) * 0x9e3779b1
		}
		m := -1
		for i, r := range reps {
			if hashes[i] == h && c.sameColumn(r, j) {
				m = i
				break
			}
		}
		if m < 0 {
			m = len(reps)
			reps = append(reps, j)
			hashes = append(hashes, h)
			cls.rep = append(cls.rep, c.cls.rep[j])
			cls.set = append(cls.set, model.ByteSet{})
		}
		cls.set[m] = cls.set[m].Union(c.cls.set[j])
		to[j] = uint8(m)
	}
	for b := range 256 {
		cls.of[b] = to[c.cls.of[b]]
	}
	shift := strideShift(len(reps))
	next := make([]int32, n<<shift)
	for i := range next {
		next[i] = -1
	}
	for q := range n {
		for m, j := range reps {
			next[q<<shift|m] = c.next[q<<c.shift|j]
		}
	}
	c.cls, c.shift, c.next = cls, shift, next
}

// sameColumn reports whether every state steps the same on columns i
// and j.
func (c *Compiled) sameColumn(i, j int) bool {
	for r := 0; r < len(c.next); r += 1 << c.shift {
		if c.next[r|i] != c.next[r|j] {
			return false
		}
	}
	return true
}

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

// ByteClasses returns the byte → class map the table is indexed by and
// the number of classes: Step sees a byte only through its class, so the
// core package memoizes its round programs per class (core.Classifier).
func (c *Compiled) ByteClasses() (of *[256]uint8, n int) { return &c.cls.of, len(c.cls.rep) }

// TableBytes returns the size of the dense transition table in bytes,
// including the shared byte→class map.
func (c *Compiled) TableBytes() int { return len(c.next)*4 + len(c.cls.of) }

// AccelEnabled reports whether the scan loops may skip the bytes a
// configuration's round programs prove inert (core.Accelerator): true
// unless DisableAccel was called.
func (c *Compiled) AccelEnabled() bool { return !c.accelOff }

// DisableAccel turns skipping off on this instance: AccelEnabled answers
// false, and the scan loops step every byte. Call it before the table is
// shared; it serves the facade's WithoutPrefilter option and differential
// tests of the scan path.
func (c *Compiled) DisableAccel() { c.accelOff = true }
