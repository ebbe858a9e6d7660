package eva

import (
	"encoding/binary"
	"slices"

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
func (a *EVA) Determinize() *EVA {
	out := New(a.reg)
	if a.initial < 0 {
		return out
	}
	s := newSubsets(a)
	// at[t] is 1 + the index of the letter edge into t while a state is
	// expanded, 0 otherwise.
	var at []int32
	for id := 0; id < len(s.members); id++ {
		// Capture edges in marker-set order; To holds the group index
		// until the target subset is interned.
		sets, targets := s.capGroups(id)
		var caps []model.Capture
		for i, set := range sets {
			caps = append(caps, model.Capture{S: set, To: i})
		}
		slices.SortFunc(caps, func(x, y model.Capture) int {
			switch {
			case x.S.Less(y.S):
				return -1
			case y.S.Less(x.S):
				return 1
			}
			return 0
		})
		for i := range caps {
			caps[i].To = s.intern(normalize(targets[caps[i].To]))
		}
		var letters []model.Letter
		for k := range s.cls.rep {
			t := s.letter(id, k)
			if t < 0 {
				continue
			}
			for len(at) < len(s.members) {
				at = append(at, 0)
			}
			if at[t] == 0 {
				letters = append(letters, model.Letter{To: t})
				at[t] = int32(len(letters))
			}
			e := &letters[at[t]-1]
			e.Class = e.Class.Union(s.cls.set[k])
		}
		for _, e := range letters {
			at[e.To] = 0
		}
		out.letters = append(out.letters, letters)
		out.captures = append(out.captures, caps)
	}
	out.final = s.final
	out.initial = 0
	return out
}

// subsets is the subset construction both determinization strategies
// share: the index of the subsets of source states minted so far, and
// their successor subsets, computed once per byte class of the source from
// the class's representative byte. Determinize drives it to a fixpoint;
// Lazy drives it on demand.
type subsets struct {
	src *EVA
	cls *classes
	// index maps a subset's key (its members as uvarints) to its id.
	index   map[string]int
	members [][]int
	final   []bool
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
// alias scratch storage; a minted subset keeps a copy.
func (s *subsets) intern(set []int) int {
	s.key = s.key[:0]
	for _, q := range set {
		s.key = binary.AppendUvarint(s.key, uint64(q))
	}
	if id, ok := s.index[string(s.key)]; ok {
		return id
	}
	id := len(s.members)
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

// capGroups returns the capture transitions of subset id grouped by exact
// marker set, in order of first occurrence among the members' edges:
// sets[i] leads to the (unnormalized) targets[i]. Nothing is minted.
func (s *subsets) capGroups(id int) (sets []model.Set, targets [][]int) {
	for _, q := range s.members[id] {
		for _, e := range s.src.captures[q] {
			i := slices.Index(sets, e.S)
			if i < 0 {
				i = len(sets)
				sets = append(sets, e.S)
				targets = append(targets, nil)
			}
			targets[i] = append(targets[i], e.To)
		}
	}
	return sets, targets
}

// normalize sorts and deduplicates a subset in place.
func normalize(set []int) []int {
	slices.Sort(set)
	return slices.Compact(set)
}
