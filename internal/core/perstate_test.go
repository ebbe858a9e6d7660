package core

import "math/big"

// perState is Algorithm 1's preprocessing pass with its tables indexed by
// state rather than by slot: lists[q] is list_q, and live lists the states
// with non-empty lists in first-arrival order. It is the test-only
// reference for the program replay. With prune set it applies the same
// lookahead — a capture (q, S, p) makes a node only when p reads the next
// byte, or at the end when p is accepting — and the replay must build the
// same DAG cell for cell (FuzzLiveSetMatchesPerState); without it, it is
// the unpruned pass of the paper, whose enumeration the replay's must
// equal output for output.
type perState struct {
	a        Automaton
	prune    bool
	ar       arena
	lists    []list
	live     []int
	base     []int
	olds     []list
	nextLive []int
}

func (e *perState) init(a Automaton) {
	e.a = a
	e.ar.reset()
	q0 := a.Initial()
	e.ensure(q0)
	e.lists[q0].add(&e.ar, 0, 0, list{}) // ⊥
	e.live = append(e.live, q0)
}

// ensure grows the per-state tables to cover state id q.
func (e *perState) ensure(q int) {
	for len(e.lists) <= q {
		e.lists = append(e.lists, list{})
		e.base = append(e.base, -1)
	}
}

// useful is the lookahead: whether a node captured into p survives the
// round that reads c, or at the end (closing), the final Capturing.
func (e *perState) useful(p int, c byte, closing bool) bool {
	if !e.prune {
		return true
	}
	if closing {
		return e.a.Accepting(p)
	}
	_, ok := e.a.Step(p, c)
	return ok
}

// capturing is Capturing(i) before reading c (or the final one, when
// closing): a lazy copy of every live list, then one new node per useful
// capture transition of each state live before the procedure. q's marker
// sets join the set table at its first node.
func (e *perState) capturing(i int, c byte, closing bool) {
	e.olds = e.olds[:0]
	for _, q := range e.live {
		e.olds = append(e.olds, e.lists[q])
	}
	n := len(e.live)
	for k := 0; k < n; k++ {
		q := e.live[k]
		caps := e.a.Captures(q)
		for j, t := range caps {
			if !e.useful(t.To, c, closing) {
				continue
			}
			if e.base[q] < 0 {
				e.base[q] = int(e.ar.addSets(caps))
			}
			e.ensure(t.To)
			if e.lists[t.To].empty() {
				e.live = append(e.live, t.To)
			}
			e.lists[t.To].add(&e.ar, i, uint32(e.base[q]+j), e.olds[k])
		}
	}
}

// reading is Reading(i): every live list moves to its state's letter
// successor, appending when two transitions enter the same state.
func (e *perState) reading(c byte) {
	e.olds = e.olds[:0]
	for _, q := range e.live {
		e.olds = append(e.olds, e.lists[q])
		e.lists[q] = list{}
	}
	e.nextLive = e.nextLive[:0]
	for k, q := range e.live {
		t, ok := e.a.Step(q, c)
		if !ok {
			continue
		}
		e.ensure(t)
		if e.lists[t].empty() {
			e.nextLive = append(e.nextLive, t)
		}
		e.lists[t].appendList(e.olds[k], e.ar.cells)
	}
	e.live, e.nextLive = e.nextLive, e.live
}

// evaluatePerState runs the per-state pass over every byte of doc, no
// byte skipped, and closes as Stream.Close does.
func evaluatePerState(a Automaton, doc []byte, prune bool) *Result {
	e := perState{prune: prune}
	e.init(a)
	for i := 0; i < len(doc) && len(e.live) > 0; i++ {
		e.capturing(i+1, doc[i], false)
		e.reading(doc[i])
	}
	e.capturing(len(doc)+1, 0, true)
	var finals []list
	for _, q := range e.live {
		if a.Accepting(q) {
			finals = append(finals, e.lists[q])
		}
	}
	return &Result{reg: a.Registry(), finals: finals, ar: e.ar, doc: doc}
}

// countPerState is Algorithm 3 per state, without pruning and in big
// arithmetic throughout: the reference for the counting pass.
func countPerState(a Automaton, doc []byte) *big.Int {
	counts := map[int]*big.Int{a.Initial(): big.NewInt(1)}
	capturing := func() {
		pre := make(map[int]*big.Int, len(counts))
		for q, n := range counts {
			pre[q] = new(big.Int).Set(n)
		}
		for q, n := range pre {
			for _, t := range a.Captures(q) {
				if counts[t.To] == nil {
					counts[t.To] = new(big.Int)
				}
				counts[t.To].Add(counts[t.To], n)
			}
		}
	}
	for _, c := range doc {
		if len(counts) == 0 {
			break
		}
		capturing()
		next := make(map[int]*big.Int)
		for q, n := range counts {
			if t, ok := a.Step(q, c); ok {
				if next[t] == nil {
					next[t] = new(big.Int)
				}
				next[t].Add(next[t], n)
			}
		}
		counts = next
	}
	capturing()
	total := new(big.Int)
	for q, n := range counts {
		if a.Accepting(q) {
			total.Add(total, n)
		}
	}
	return total
}
