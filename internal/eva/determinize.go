package eva

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"spanners/internal/model"
)

// Determinize returns an equivalent deterministic eVA via the subset
// construction of Proposition 3.2: the classical NFA determinization with
// the alphabet Σ ∪ (2^MarkersV ∖ {∅}), treating each exact marker set as
// one symbol. Capture transitions of the members are grouped by their exact
// set S; letter transitions are computed once per byte class of a and
// grouped into one edge per target subset.
//
// Only subsets reachable from {q0} are materialized, so the 2^n worst case
// (which Propositions 4.1 and 4.3 account for) is paid only when the
// automaton actually requires it. Determinization preserves sequentiality
// and functionality, because it preserves the set of accepting label
// sequences and validity is a property of the label sequence alone.
//
// It fills the table Compile fills, without a state limit, and exports each
// row as letter edges in class order; the evaluators run on Compile's
// frozen table instead.
func (a *EVA) Determinize() *EVA {
	if a.initial < 0 {
		return New(a.reg)
	}
	c := newTable(newSubsets(a), a.NumStates())
	c.fillAll()
	n := c.NumStates()
	out := builder{final: c.accepting}
	// at[t] is 1 + the index of the letter edge into t among the exported
	// state's edges while it is exported, 0 otherwise.
	at := make([]int32, n)
	for q := range n {
		out.begin()
		lo := len(out.letters)
		for k, t := range c.next[q<<c.shift:][:len(c.cls.rep)] {
			if t < 0 {
				continue
			}
			if at[t] == 0 {
				out.letter(model.ByteSet{}, int(t))
				at[t] = int32(len(out.letters) - lo)
			}
			e := &out.letters[lo+int(at[t])-1]
			e.Class = e.Class.Union(c.cls.set[k])
		}
		for _, e := range out.letters[lo:] {
			at[e.To] = 0
		}
	}
	det := out.build(a.reg, 0)
	// The capture lists are the table's own, computed for every state.
	det.captures = c.captures
	return det
}

// subsets is the subset construction both determinization modes share:
// the index of the subsets of source states minted so far, and their
// successor subsets, computed once per byte class of the source from the
// class's representative byte. It fills a Compiled table, to a fixpoint
// for Compile and Determinize, on demand for Lazy.
type subsets struct {
	src *EVA
	cls *classes
	// pool holds the members of the minted subsets back to back, each
	// normalized: subset id is pool[off[id]:off[id+1]].
	pool []int
	off  []int32
	// index is an open-addressing hash table of subset ids plus one, 0
	// marking an empty entry; its length is a power of two.
	index []int32
	final []bool
	// limit caps the number of subsets, 0 for no cap; over records that a
	// mint was refused.
	limit int
	over  bool
	// minted mirrors count() behind an atomic, so that
	// Lazy.StatesDiscovered never touches the tables evaluations mutate.
	minted atomic.Int64
	// caps backs the capture lists captures hands out, which are carved
	// from it in turn.
	caps []model.Capture
	// to and group are scratch buffers, so that only minting allocates.
	to    []int
	group []model.Capture
}

// newSubsets returns the construction over src with {q0} minted as id 0.
// Its buffers start with room for as many subsets as src has states.
func newSubsets(src *EVA) *subsets {
	n := src.NumStates()
	s := &subsets{
		src:   src,
		cls:   byteClasses(src),
		pool:  make([]int, 0, n),
		off:   make([]int32, 1, n+1),
		index: make([]int32, max(16, 2<<bits.Len(uint(n)))),
		final: make([]bool, 0, n),
	}
	if src.initial >= 0 {
		s.intern([]int{src.initial})
	}
	return s
}

// count returns the number of subsets minted so far.
func (s *subsets) count() int { return len(s.off) - 1 }

// members returns the source states of subset id, in increasing order.
func (s *subsets) members(id int) []int { return s.pool[s.off[id]:s.off[id+1]] }

// intern returns the id of a normalized subset, minting it if new. set may
// alias scratch storage; a minted subset keeps a copy. A new subset past
// the limit is refused: intern sets over and returns −1.
func (s *subsets) intern(set []int) int {
	mask := len(s.index) - 1
	i := int(model.HashStates(set)) & mask
	for ; s.index[i] != 0; i = (i + 1) & mask {
		if id := int(s.index[i] - 1); slices.Equal(s.members(id), set) {
			return id
		}
	}
	id := s.count()
	if s.limit > 0 && id == s.limit {
		s.over = true
		return -1
	}
	s.pool = append(s.pool, set...)
	s.off = append(s.off, int32(len(s.pool)))
	s.index[i] = int32(id + 1)
	if 2*len(s.off) > len(s.index) {
		s.growIndex()
	}
	final := false
	for _, q := range set {
		if s.src.final[q] {
			final = true
			break
		}
	}
	s.final = append(s.final, final)
	s.minted.Store(int64(s.count()))
	return id
}

// growIndex doubles the hash table and re-inserts every subset.
func (s *subsets) growIndex() {
	n := 2 * len(s.index)
	s.index = make([]int32, n)
	for id := range s.count() {
		i := int(model.HashStates(s.members(id))) & (n - 1)
		for s.index[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		s.index[i] = int32(id + 1)
	}
}

// letter returns the successor of subset id on the bytes of class k, or
// −1 when no member reads them.
func (s *subsets) letter(id, k int) int {
	b := s.cls.rep[k]
	to := s.to[:0]
	for _, q := range s.members(id) {
		for _, e := range s.src.letters[q] {
			if e.Class.Has(b) {
				to = append(to, e.To)
			}
		}
	}
	s.to = to
	if len(to) == 0 {
		return -1
	}
	return s.intern(normalize(to))
}

// noCaptures is the capture list of a subset without captures: computed,
// so not nil.
var noCaptures = []model.Capture{}

// captures returns the capture transitions of subset id, one per exact
// marker set in marker-set order, minting their target subsets in that
// order. The result is never nil.
func (s *subsets) captures(id int) []model.Capture {
	group := s.group[:0]
	for _, q := range s.members(id) {
		group = append(group, s.src.captures[q]...)
	}
	s.group = group
	if len(group) == 0 {
		return noCaptures
	}
	// Sort the member captures by marker set; each run of one set is one
	// capture transition of the subset.
	slices.SortFunc(group, func(x, y model.Capture) int {
		switch {
		case x.S.Less(y.S):
			return -1
		case y.S.Less(x.S):
			return 1
		}
		return 0
	})
	start := len(s.caps)
	for i := 0; i < len(group); {
		j := i + 1
		for j < len(group) && group[j].S == group[i].S {
			j++
		}
		to := s.to[:0]
		for _, e := range group[i:j] {
			to = append(to, e.To)
		}
		s.to = to
		s.caps = append(s.caps, model.Capture{S: group[i].S, To: s.intern(normalize(to))})
		i = j
	}
	return s.caps[start:len(s.caps):len(s.caps)]
}

// normalize sorts and deduplicates a subset in place.
func normalize(set []int) []int {
	slices.Sort(set)
	return slices.Compact(set)
}
