package eva

import (
	"sort"
	"strconv"

	"spanners/internal/model"
)

// DeterminizeReference is the per-byte subset construction of Proposition
// 3.2, kept as the reference Determinize is checked against: for every det
// state it computes the target subset of each of the 256 bytes separately
// and groups bytes with identical targets into one class edge. Subsets are
// numbered in the order they are first reached, exactly as Determinize
// numbers them.
func DeterminizeReference(a *EVA) *EVA {
	if a.initial < 0 {
		return New(a.reg)
	}
	d := &refDeterminizer{src: a, out: New(a.reg), index: make(map[string]int)}
	d.intern([]int{a.initial})
	for id := 0; id < len(d.members); id++ {
		d.expand(id)
	}
	d.out.SetInitial(0)
	return d.out
}

// ReferenceStep returns the normalized subset the members of set reach on
// byte c, nil when no member reads c.
func ReferenceStep(src *EVA, set []int, c byte) []int {
	var to []int
	for _, q := range set {
		for _, e := range src.letters[q] {
			if e.Class.Has(c) {
				to = append(to, e.To)
			}
		}
	}
	if len(to) == 0 {
		return nil
	}
	return normalize(to)
}

// LazyMembers returns the source states of the lazy subset state q.
func LazyMembers(l *Lazy, q int) []int { return l.sub.members(q) }

type refDeterminizer struct {
	src     *EVA
	out     *EVA
	index   map[string]int
	members [][]int
}

func (d *refDeterminizer) intern(set []int) int {
	key := subsetKey(set)
	if id, ok := d.index[key]; ok {
		return id
	}
	id := d.out.AddState()
	d.index[key] = id
	d.members = append(d.members, set)
	for _, q := range set {
		if d.src.final[q] {
			d.out.SetFinal(id, true)
			break
		}
	}
	return id
}

func (d *refDeterminizer) expand(id int) {
	set := d.members[id]

	capTargets := make(map[model.Set][]int)
	for _, q := range set {
		for _, e := range d.src.captures[q] {
			capTargets[e.S] = append(capTargets[e.S], e.To)
		}
	}
	capSets := make([]model.Set, 0, len(capTargets))
	for s := range capTargets {
		capSets = append(capSets, s)
	}
	sort.Slice(capSets, func(i, j int) bool { return capSets[i].Less(capSets[j]) })
	for _, s := range capSets {
		d.out.AddCapture(id, s, d.intern(normalize(capTargets[s])))
	}

	type group struct {
		class model.ByteSet
		to    []int
	}
	groups := make(map[string]*group)
	var order []string
	for c := 0; c < 256; c++ {
		to := ReferenceStep(d.src, set, byte(c))
		if to == nil {
			continue
		}
		k := subsetKey(to)
		g, ok := groups[k]
		if !ok {
			g = &group{to: to}
			groups[k] = g
			order = append(order, k)
		}
		g.class.Add(byte(c))
	}
	for _, k := range order {
		g := groups[k]
		d.out.AddLetter(id, g.class, d.intern(g.to))
	}
}

func subsetKey(set []int) string {
	buf := make([]byte, 0, len(set)*3)
	for _, q := range set {
		buf = strconv.AppendInt(buf, int64(q), 32)
		buf = append(buf, ',')
	}
	return string(buf)
}
