package core

// perState is Algorithm 1's preprocessing pass with its tables indexed by
// state rather than by slot: lists[q] is list_q, and live lists the states
// with non-empty lists in first-arrival order. It is the test-only
// reference for the slot-ordered evaluation, which must build the same DAG
// cell for cell (FuzzLiveSetMatchesPerState).
type perState struct {
	a        Automaton
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

// capturing is Capturing(i): a lazy copy of every live list, then one new
// node per capture transition of each state live before the procedure.
func (e *perState) capturing(i int) {
	e.olds = e.olds[:0]
	for _, q := range e.live {
		e.olds = append(e.olds, e.lists[q])
	}
	n := len(e.live)
	for k := 0; k < n; k++ {
		q := e.live[k]
		caps := e.a.Captures(q)
		if len(caps) == 0 {
			continue
		}
		if e.base[q] < 0 {
			e.base[q] = int(e.ar.addSets(caps))
		}
		base := uint32(e.base[q])
		for j, t := range caps {
			e.ensure(t.To)
			if e.lists[t.To].empty() {
				e.live = append(e.live, t.To)
			}
			e.lists[t.To].add(&e.ar, i, base+uint32(j), e.olds[k])
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

// evaluatePerState runs the per-state pass over doc with the skip attempts
// of Stream.process and closes as Stream.Close does.
func evaluatePerState(a Automaton, doc []byte) *Result {
	var e perState
	var g accelGate
	e.init(a)
	g.init(a)
	i, last := 0, 0
	for i < len(doc) && len(e.live) > 0 {
		if g.on {
			if n := g.skip(e.live, doc, i, &last); n > 0 {
				i += n
				continue
			}
		}
		e.capturing(i + 1)
		e.reading(doc[i])
		i++
	}
	e.capturing(len(doc) + 1)
	var finals []list
	for _, q := range e.live {
		if a.Accepting(q) {
			finals = append(finals, e.lists[q])
		}
	}
	return &Result{reg: a.Registry(), finals: finals, ar: e.ar, doc: doc}
}
