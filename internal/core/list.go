package core

import (
	"math"

	"spanners/internal/model"
)

// cell is a vertex of the reverse-dual DAG built by Algorithm 1 fused with
// the one list element that holds it. Its content is an annotated marker
// set (S, i) — "the markers S were executed just before reading letter i"
// — with S stored as an index into the pass's set table; adj is its
// adjacency list, the nodes of the variable transitions that could precede
// it in a run; next links it to the following element of its list. The
// sink ⊥ (a cell with pos 0) plays the role of the initial product state.
//
// Node and element are fused because they are 1:1: Capturing adds every
// node it creates to exactly one list, and Reading only splices existing
// elements (Section 3.2.2, "Data structures"). Cells are created and never
// modified, with one exception: a cell whose next is 0 may have it set,
// once, when the list it terminates is appended to another. This
// discipline is what makes lazy copies sound.
type cell struct {
	pos  int
	set  uint32
	adj  list
	next uint32
}

// list is a (head, tail) pair of cell indices, 0 meaning nil. Iteration
// runs from head and stops at tail — not at next == 0 — so a lazycopy of a
// list remains correct even after the original's tail cell has its next
// index spliced by a later append.
//
// The paper's list methods map onto the fused cell as follows: add
// prepends a new cell, appendList splices in O(1) with the one permitted
// next write, and lazycopy is plain struct assignment (the value is the
// index pair).
type list struct {
	head, tail uint32
}

func (l list) empty() bool { return l.head == 0 }

// add creates the node (set, pos) with adjacency list adj and inserts it at
// the beginning of the list: node and element are one new cell.
func (l *list) add(ar *arena, pos int, set uint32, adj list) {
	c := ar.newCell(pos, set, adj, l.head)
	if l.head == 0 {
		l.tail = c
	}
	l.head = c
}

// appendList splices o onto the end of l. The splice writes o's head into
// the next index of l's tail — the single permitted mutation of a cell.
// Each list value is appended at most once, which the evaluator guarantees
// because the automaton is deterministic: every old state list is consumed
// by at most one letter transition per position.
func (l *list) appendList(o list, cells []cell) {
	if o.head == 0 {
		return
	}
	if l.head == 0 {
		*l = o
		return
	}
	cells[l.tail].next = o.head
	l.tail = o.tail
}

// arena holds the DAG of one pass: the cells in one contiguous slice
// indexed by uint32, with index 0 the nil sentinel, and the marker sets the
// cells name by index. Both slices are pointer-free, so the garbage
// collector never scans them, and indices survive regrowth where pointers
// would not. reset keeps the high-water capacity: a reused arena reaches
// it once and then evaluates further documents without allocating. Reset
// must only run once every Result pointing into the arena has been fully
// consumed (see Scratch).
type arena struct {
	cells []cell
	sets  []model.Set
}

// arenaFloor is the capacity an empty arena table first grows to.
const arenaFloor = 4096

// newCell appends a cell and returns its index.
func (a *arena) newCell(pos int, set uint32, adj list, next uint32) uint32 {
	if len(a.cells) == cap(a.cells) {
		a.cells = grow(a.cells, 1)
	}
	a.cells = append(a.cells, cell{pos: pos, set: set, adj: adj, next: next})
	return uint32(len(a.cells) - 1)
}

// addSets appends sets to the set table and returns the index of the
// first.
func (a *arena) addSets(caps []model.Capture) uint32 {
	base := len(a.sets)
	if base+len(caps) > cap(a.sets) {
		a.sets = grow(a.sets, len(caps))
	}
	for _, t := range caps {
		a.sets = append(a.sets, t.S)
	}
	return uint32(base)
}

// grow returns s, contents kept, with room for n more elements: the
// capacity doubles, with a floor of arenaFloor. Arena indices are uint32,
// so grow panics before one would pass 2³²−1.
func grow[T any](s []T, n int) []T {
	if uint64(len(s)+n) > math.MaxUint32+1 {
		panic("core: DAG arena exceeds 2^32-1 entries")
	}
	g := make([]T, len(s), max(2*cap(s), len(s)+n, arenaFloor))
	copy(g, s)
	return g
}

// reset empties the arena for a fresh pass, keeping its capacity, and
// re-creates the nil sentinel at index 0. Cells are not zeroed — each is
// fully overwritten when reallocated — so reset is O(1).
func (a *arena) reset() {
	a.cells = a.cells[:0]
	a.sets = a.sets[:0]
	a.newCell(0, 0, list{}, 0)
}
