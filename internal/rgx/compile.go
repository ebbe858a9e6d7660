package rgx

import (
	"spanners/internal/model"
	"spanners/internal/va"
)

// Compile translates the formula into an equivalent variable-set automaton,
// the linear-time RGX → VA translation the paper inherits from Fagin et
// al. [10]. The construction is a Thompson-style fragment build over an
// ε-NFA whose non-ε labels are byte classes and variable markers, followed
// by ε-elimination. The resulting VA need not be sequential — e.g. a
// capture under a star produces runs that reopen a variable — and callers
// route it through the sequentiality check and, if needed, the
// sequentialization product (Proposition 4.1 pipeline).
func Compile(n Node) (*va.VA, error) {
	reg, err := Registry(n)
	if err != nil {
		return nil, err
	}
	eps, letters, markers := edges(n)
	c := &compiler{
		reg:     reg,
		epsArcs: make([]arc, 0, eps),
		letters: make([]letterArc, 0, letters),
		markers: make([]markerArc, 0, markers),
	}
	start, end := c.build(n)
	return c.eliminate(start, end).Trim(), nil
}

// MustCompile parses and compiles, panicking on error.
func MustCompile(pattern string) *va.VA {
	n, err := Parse(pattern)
	if err != nil {
		panic(err)
	}
	a, err := Compile(n)
	if err != nil {
		panic(err)
	}
	return a
}

// compiler builds the ε-NFA of a formula. States are numbered in the order
// build mints them; the edges of each kind are listed with their source
// state in the order build adds them.
type compiler struct {
	reg     *model.Registry
	states  int
	epsArcs []arc
	letters []letterArc
	markers []markerArc
}

type arc struct{ from, to int }

type letterArc struct {
	from int
	model.Letter
}

type markerArc struct {
	from int
	va.MarkerEdge
}

func (c *compiler) newState() int {
	c.states++
	return c.states - 1
}

func (c *compiler) eps(from, to int) { c.epsArcs = append(c.epsArcs, arc{from, to}) }

// build returns the (start, end) states of the fragment for n.
func (c *compiler) build(n Node) (int, int) {
	switch t := n.(type) {
	case Empty:
		s := c.newState()
		return s, s
	case Class:
		s, e := c.newState(), c.newState()
		c.letters = append(c.letters, letterArc{s, model.Letter{Class: t.Set, To: e}})
		return s, e
	case Capture:
		v := c.reg.MustAdd(t.Var)
		s, e := c.newState(), c.newState()
		fs, fe := c.build(t.Sub)
		c.markers = append(c.markers,
			markerArc{s, va.MarkerEdge{M: model.Open(v), To: fs}},
			markerArc{fe, va.MarkerEdge{M: model.CloseOf(v), To: e}})
		return s, e
	case Concat:
		s, e := c.build(t.Subs[0])
		for _, sub := range t.Subs[1:] {
			ns, ne := c.build(sub)
			c.eps(e, ns)
			e = ne
		}
		return s, e
	case Alt:
		s, e := c.newState(), c.newState()
		for _, sub := range t.Subs {
			fs, fe := c.build(sub)
			c.eps(s, fs)
			c.eps(fe, e)
		}
		return s, e
	case Star:
		s, e := c.newState(), c.newState()
		fs, fe := c.build(t.Sub)
		c.eps(s, fs)
		c.eps(s, e)
		c.eps(fe, fs)
		c.eps(fe, e)
		return s, e
	}
	panic("rgx: unknown node")
}

// edges returns how many ε, letter and marker transitions build adds for
// n, which sizes the compiler's edge lists.
func edges(n Node) (eps, letters, markers int) {
	add := func(sub Node) {
		e, l, m := edges(sub)
		eps, letters, markers = eps+e, letters+l, markers+m
	}
	switch t := n.(type) {
	case Class:
		letters = 1
	case Capture:
		markers = 2
		add(t.Sub)
	case Concat:
		eps = len(t.Subs) - 1
		for _, sub := range t.Subs {
			add(sub)
		}
	case Alt:
		eps = 2 * len(t.Subs)
		for _, sub := range t.Subs {
			add(sub)
		}
	case Star:
		eps = 4
		add(t.Sub)
	}
	return eps, letters, markers
}

// bySource groups edges by source state, keeping their order within a
// state: the edges of state q are at[off[q]:off[q+1]].
func bySource[E any](states int, edges []E, from func(*E) int) (off []int32, at []E) {
	off = make([]int32, states+1)
	for i := range edges {
		off[from(&edges[i])+1]++
	}
	for q := range states {
		off[q+1] += off[q]
	}
	at = make([]E, len(edges))
	next := make([]int32, states)
	copy(next, off)
	for i := range edges {
		q := from(&edges[i])
		at[next[q]] = edges[i]
		next[q]++
	}
	return off, at
}

// eliminate returns the ε-free VA of the ε-NFA with the given start and
// end states: state q inherits the non-ε transitions and finality of every
// state in its ε-closure. It keeps only the states reachable from start,
// in increasing order of their ε-NFA numbers: Trim, which the caller
// applies, drops every other state whatever it carries, and numbers the
// states it keeps in the same relative order. Each closure is walked
// twice, to count the state's transitions and then to copy them into
// per-state lists carved from one backing array per edge kind.
func (c *compiler) eliminate(start, end int) *va.VA {
	n := c.states
	epsOff, eps := bySource(n, c.epsArcs, func(a *arc) int { return a.from })
	letOff, lets := bySource(n, c.letters, func(a *letterArc) int { return a.from })
	markOff, marks := bySource(n, c.markers, func(a *markerArc) int { return a.from })

	// seen[p] == stamp marks p as in the closure being walked; the closure
	// of q is walked with stamp 2q+1 for counting and 2q+2 for copying.
	seen := make([]int32, n)
	var stack, closure []int32
	epsClosure := func(q int, stamp int32) []int32 {
		seen[q] = stamp
		stack = append(stack[:0], int32(q))
		closure = append(closure[:0], int32(q))
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range eps[epsOff[p]:epsOff[p+1]] {
				if seen[a.to] != stamp {
					seen[a.to] = stamp
					closure = append(closure, int32(a.to))
					stack = append(stack, int32(a.to))
				}
			}
		}
		return closure
	}

	// Count the transitions of every reachable state q into
	// letterN[q+1] and markerN[q+1], in a depth-first search from start
	// over the ε-free transitions. id[q] is nonzero once q is reached.
	id := make([]int32, n)
	letterN := make([]int32, n+1)
	markerN := make([]int32, n+1)
	final := make([]bool, n)
	work := []int32{int32(start)}
	id[start] = 1
	for len(work) > 0 {
		q := int(work[len(work)-1])
		work = work[:len(work)-1]
		for _, p := range epsClosure(q, int32(2*q+1)) {
			final[q] = final[q] || int(p) == end
			letterN[q+1] += letOff[p+1] - letOff[p]
			markerN[q+1] += markOff[p+1] - markOff[p]
			for _, a := range lets[letOff[p]:letOff[p+1]] {
				if id[a.To] == 0 {
					id[a.To] = 1
					work = append(work, int32(a.To))
				}
			}
			for _, a := range marks[markOff[p]:markOff[p+1]] {
				if id[a.To] == 0 {
					id[a.To] = 1
					work = append(work, int32(a.To))
				}
			}
		}
	}
	// Number the reached states in increasing order, and turn the counts
	// into offsets by new number in place: entry k+1 is written only once
	// the count at q+1 ≥ k+1 has been read.
	k := 0
	for q := range n {
		if id[q] != 0 {
			id[q] = int32(k)
			final[k] = final[q]
			letterN[k+1] = letterN[k] + letterN[q+1]
			markerN[k+1] = markerN[k] + markerN[q+1]
			k++
		} else {
			id[q] = -1
		}
	}

	letters := make([]model.Letter, letterN[k])
	markers := make([]va.MarkerEdge, markerN[k])
	for q := range n {
		if id[q] < 0 {
			continue
		}
		li, mi := letterN[id[q]], markerN[id[q]]
		for _, p := range epsClosure(q, int32(2*q+2)) {
			for _, a := range lets[letOff[p]:letOff[p+1]] {
				letters[li] = model.Letter{Class: a.Class, To: int(id[a.To])}
				li++
			}
			for _, a := range marks[markOff[p]:markOff[p+1]] {
				markers[mi] = va.MarkerEdge{M: a.M, To: int(id[a.To])}
				mi++
			}
		}
	}
	return va.Build(c.reg, int(id[start]), final[:k:k],
		model.Carve(letters, letterN[:k+1]), model.Carve(markers, markerN[:k+1]))
}
