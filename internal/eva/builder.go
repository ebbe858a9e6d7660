package eva

import "spanners/internal/model"

// builder assembles an automaton whose states receive their transitions
// in increasing state order, each state's all at once: the shape of the
// worklist products (Sequentialize, Join), of the copying constructions
// (UnionAll, Project) and of Determinize's export. The transitions go to
// one flat list per kind, carved into per-state lists when the automaton
// is built, so a construction allocates per automaton instead of per
// state.
type builder struct {
	final    []bool
	letters  []model.Letter
	captures []model.Capture
	// lOff[q] and cOff[q] are where the transitions of state q start; they
	// hold one entry per state begun so far.
	lOff, cOff []int32
}

// addState adds a state with finality f and returns its index.
func (b *builder) addState(f bool) int {
	b.final = append(b.final, f)
	return len(b.final) - 1
}

// begin starts the transitions of the next state: state 0 first, then 1,
// and so on. Transitions added after it belong to that state.
func (b *builder) begin() {
	b.lOff = append(b.lOff, int32(len(b.letters)))
	b.cOff = append(b.cOff, int32(len(b.captures)))
}

func (b *builder) letter(class model.ByteSet, to int) {
	b.letters = append(b.letters, model.Letter{Class: class, To: to})
}

// capture adds an extended variable transition; like EVA.AddCapture, it
// panics if s is empty.
func (b *builder) capture(s model.Set, to int) {
	if s.IsEmpty() {
		panic("eva: extended variable transitions must carry a non-empty marker set")
	}
	b.captures = append(b.captures, model.Capture{S: s, To: to})
}

// build returns the automaton. States never begun have no transitions.
func (b *builder) build(reg *model.Registry, initial int) *EVA {
	for len(b.lOff) <= len(b.final) {
		b.begin()
	}
	return Build(reg, initial, b.final, model.Carve(b.letters, b.lOff), model.Carve(b.captures, b.cOff))
}
