package eva

import (
	"encoding/binary"
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
	out := New(a.reg)
	if a.initial < 0 {
		return out
	}
	c := newTable(newSubsets(a))
	c.fillAll()
	n := c.NumStates()
	// at[t] is 1 + the index of the letter edge into t while a state is
	// exported, 0 otherwise.
	at := make([]int32, n)
	for q := range n {
		var letters []model.Letter
		for k, t := range c.next[q<<c.shift:][:len(c.cls.rep)] {
			if t < 0 {
				continue
			}
			if at[t] == 0 {
				letters = append(letters, model.Letter{To: int(t)})
				at[t] = int32(len(letters))
			}
			e := &letters[at[t]-1]
			e.Class = e.Class.Union(c.cls.set[k])
		}
		for _, e := range letters {
			at[e.To] = 0
		}
		out.letters = append(out.letters, letters)
		out.captures = append(out.captures, c.captures[q])
	}
	out.final = c.accepting
	out.initial = 0
	return out
}

// subsets is the subset construction both determinization modes share:
// the index of the subsets of source states minted so far, and their
// successor subsets, computed once per byte class of the source from the
// class's representative byte. It fills a Compiled table, to a fixpoint
// for Compile and Determinize, on demand for Lazy.
type subsets struct {
	src *EVA
	cls *classes
	// index maps a subset's key (its members as uvarints) to its id.
	index   map[string]int
	members [][]int
	final   []bool
	// limit caps the number of subsets, 0 for no cap; over records that a
	// mint was refused.
	limit int
	over  bool
	// minted mirrors len(members) behind an atomic, so that
	// Lazy.StatesDiscovered never touches the tables evaluations mutate.
	// spanlint:atomic
	minted atomic.Int64
	// to and key are scratch buffers, so that only minting allocates.
	to  []int
	key []byte
}

// newSubsets returns the construction over src with {q0} minted as id 0.
func newSubsets(src *EVA) *subsets {
	s := &subsets{src: src, cls: byteClasses(src), index: make(map[string]int)}
	if src.initial >= 0 {
		s.intern([]int{src.initial})
	}
	return s
}

// intern returns the id of a normalized subset, minting it if new. set may
// alias scratch storage; a minted subset keeps a copy. A new subset past
// the limit is refused: intern sets over and returns −1.
func (s *subsets) intern(set []int) int {
	s.key = s.key[:0]
	for _, q := range set {
		s.key = binary.AppendUvarint(s.key, uint64(q))
	}
	if id, ok := s.index[string(s.key)]; ok {
		return id
	}
	id := len(s.members)
	if s.limit > 0 && id == s.limit {
		s.over = true
		return -1
	}
	s.index[string(s.key)] = id
	s.members = append(s.members, slices.Clone(set))
	final := false
	for _, q := range set {
		if s.src.final[q] {
			final = true
			break
		}
	}
	s.final = append(s.final, final)
	s.minted.Store(int64(len(s.members)))
	return id
}

// letter returns the successor of subset id on the bytes of class k, or
// −1 when no member reads them.
func (s *subsets) letter(id, k int) int {
	b := s.cls.rep[k]
	to := s.to[:0]
	for _, q := range s.members[id] {
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

// captures returns the capture transitions of subset id, one per exact
// marker set in marker-set order, minting their target subsets in that
// order. The result is never nil.
func (s *subsets) captures(id int) []model.Capture {
	type group struct {
		set model.Set
		to  []int
	}
	var groups []group
	for _, q := range s.members[id] {
		for _, e := range s.src.captures[q] {
			i := slices.IndexFunc(groups, func(g group) bool { return g.set == e.S })
			if i < 0 {
				i = len(groups)
				groups = append(groups, group{set: e.S})
			}
			groups[i].to = append(groups[i].to, e.To)
		}
	}
	slices.SortFunc(groups, func(x, y group) int {
		switch {
		case x.set.Less(y.set):
			return -1
		case y.set.Less(x.set):
			return 1
		}
		return 0
	})
	caps := make([]model.Capture, 0, len(groups))
	for _, g := range groups {
		caps = append(caps, model.Capture{S: g.set, To: s.intern(normalize(g.to))})
	}
	return caps
}

// normalize sorts and deduplicates a subset in place.
func normalize(set []int) []int {
	slices.Sort(set)
	return slices.Compact(set)
}
