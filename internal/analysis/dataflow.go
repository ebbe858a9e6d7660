// A generic forward worklist dataflow solver over the CFGs of cfg.go.
// Analyzers describe their lattice (clone, join, equality) and a
// per-block transfer function; Solve iterates to the fixed point and
// hands back the state at entry to every reachable block, which the
// analyzer then replays in a separate reporting pass.
package analysis

// Flow describes one forward dataflow problem over a CFG.
//
// The lattice operations must satisfy the usual laws for termination:
// Join is an upper bound (monotone, commutative, idempotent) and the
// lattice has finite height for the facts a function can generate.
// Transfer and Edge must not mutate their argument in a way that
// escapes — they receive a private clone.
type Flow[L any] struct {
	CFG   *CFG
	Entry L
	// Clone returns an independent copy of a state.
	Clone func(L) L
	// Join merges src into dst and returns the merge (it may mutate and
	// return dst).
	Join func(dst, src L) L
	// Equal reports whether two states carry the same facts; the solver
	// uses it to detect the fixed point.
	Equal func(a, b L) bool
	// Transfer applies the effect of the block's nodes to the state and
	// returns the block-exit state (it may mutate and return its
	// argument).
	Transfer func(b *Block, state L) L
	// Edge, if non-nil, refines the state along a specific edge — the
	// hook for condition-based refinement via CondEdge. It may mutate
	// and return its argument.
	Edge func(from, to *Block, state L) L
}

// Solve runs the forward analysis to its fixed point. It returns the
// state at entry to each block (indexed like CFG.Blocks) and a
// reachable mask; entries of unreachable blocks are the zero L and must
// be ignored.
func (f *Flow[L]) Solve() (in []L, reached []bool) {
	n := len(f.CFG.Blocks)
	in = make([]L, n)
	reached = make([]bool, n)
	if n == 0 {
		return in, reached
	}
	in[0] = f.Clone(f.Entry)
	reached[0] = true
	work := []*Block{f.CFG.Blocks[0]}
	queued := make([]bool, n)
	queued[0] = true
	// A generous safety bound: any monotone finite-height problem
	// converges far earlier; a buggy transfer must not hang the linter.
	for steps := 0; len(work) > 0 && steps < 1000*(n+1); steps++ {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		out := f.Transfer(b, f.Clone(in[b.Index]))
		for _, s := range b.Succs {
			edgeState := f.Clone(out)
			if f.Edge != nil {
				edgeState = f.Edge(b, s, edgeState)
			}
			var next L
			if !reached[s.Index] {
				next = edgeState
			} else {
				next = f.Join(f.Clone(in[s.Index]), edgeState)
				if f.Equal(next, in[s.Index]) {
					continue
				}
			}
			in[s.Index] = next
			reached[s.Index] = true
			if !queued[s.Index] {
				queued[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return in, reached
}
