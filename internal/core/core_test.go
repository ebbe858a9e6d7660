package core_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"spanners/internal/core"
	"spanners/internal/eva"
	"spanners/internal/gen"
	"spanners/internal/model"
	"spanners/internal/rgx"
	"spanners/internal/va"
	"spanners/spanner"
)

// pipeline compiles a regex formula all the way to a deterministic
// sequential eVA via the facade's canonical pipeline (parse → VA → eVA →
// trim → sequentialize if needed → determinize), re-asserting the
// properties Algorithm 1 relies on.
func pipeline(t *testing.T, pattern string) *eva.EVA {
	t.Helper()
	n, err := rgx.Parse(pattern)
	if err != nil {
		t.Fatalf("parse %q: %v", pattern, err)
	}
	return pipelineNode(t, n)
}

func pipelineNode(t *testing.T, n rgx.Node) *eva.EVA {
	t.Helper()
	d, err := spanner.PipelineNode(n)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !d.IsDeterministic() {
		t.Fatal("pipeline must produce a deterministic automaton")
	}
	if !d.IsSequential() {
		t.Fatal("pipeline must produce a sequential automaton")
	}
	return d
}

func TestFigure3Evaluate(t *testing.T) {
	a := gen.Figure3EVA()
	res := core.Evaluate(a, []byte("ab"))
	got := res.Collect()
	want := a.Eval([]byte("ab"))
	if !got.Equal(want) {
		t.Fatalf("Evaluate disagrees with reference:\n%v", want.Diff(got, 10))
	}
	if got.Len() != 3 {
		t.Fatalf("|⟦A⟧ab| = %d, want 3", got.Len())
	}
}

func TestFigure3EnumerationOrder(t *testing.T) {
	// Section 3.2.2: µ1 is generated by the uppermost path, then µ2, µ3.
	a := gen.Figure3EVA()
	res := core.Evaluate(a, []byte("ab"))
	it := res.Iterator()
	var keys []string
	for {
		m, ok := it.Next()
		if !ok {
			break
		}
		keys = append(keys, m.Key())
	}
	want := []string{
		"x=[1,3)|y=[2,3)",
		"x=[2,3)|y=[1,3)",
		"x=[1,3)|y=[1,3)",
	}
	if len(keys) != len(want) {
		t.Fatalf("got %d outputs: %v", len(keys), keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("output %d = %s, want %s", i, keys[i], want[i])
		}
	}
}

func TestFigure6DAGShape(t *testing.T) {
	// The DAG reachable from the final lists must be exactly Figure 6:
	// two ({%x,%y},3) roots, the intermediate position-2 opens, the three
	// position-1 opens, and ⊥.
	a := gen.Figure3EVA()
	res := core.Evaluate(a, []byte("ab"))
	got := core.DumpDAG(res)
	want := `final[0]: [0 1]
n0: ({%x, %y}, 3) -> [2 3]
n1: ({%x, %y}, 3) -> [4]
n2: ({y$}, 2) -> [5]
n3: ({x$}, 2) -> [6]
n4: ({x$, y$}, 1) -> [7]
n5: ({x$}, 1) -> [7]
n6: ({y$}, 1) -> [7]
n7: ⊥
`
	if got != want {
		t.Fatalf("DAG mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	// Figure 5 additionally creates the node ({%x,%y},2) for list¹_q9,
	// which dies at Reading(2). q9 cannot read the 'b' at position 2, so
	// the lookahead never builds it: the arena holds exactly the 7
	// reachable nodes.
	if n := core.NodeCount(res); n != 7 {
		t.Fatalf("allocated nodes = %d, want 7 (the reachable ones)", n)
	}
	if sizes := core.FinalListSizes(res); len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("final list sizes = %v, want [2]", sizes)
	}
}

func TestEmptyDocument(t *testing.T) {
	reg := model.NewRegistryOf("x")
	x, _ := reg.Lookup("x")
	a := eva.New(reg)
	q0 := a.AddState()
	q1 := a.AddState()
	a.SetInitial(q0)
	a.SetFinal(q1, true)
	a.AddCapture(q0, model.SetOf(model.Open(x), model.CloseOf(x)), q1)

	res := core.Evaluate(a, nil)
	got := res.Collect()
	if got.Len() != 1 || !got.ContainsKey("x=[1,1)") {
		t.Fatalf("⟦A⟧ε = %v, want {x=[1,1)}", got)
	}
}

func TestEmptyMappingOutput(t *testing.T) {
	// A variable-free automaton outputs the empty mapping iff it accepts.
	reg := model.NewRegistry()
	a := eva.New(reg)
	q0 := a.AddState()
	q1 := a.AddState()
	a.SetInitial(q0)
	a.SetFinal(q1, true)
	a.AddByte(q0, 'a', q1)
	a.AddByte(q1, 'a', q0)

	res := core.Evaluate(a, []byte("a"))
	got := res.Collect()
	if got.Len() != 1 || !got.ContainsKey("") {
		t.Fatalf("want the empty mapping, got %v", got)
	}
	if !core.Evaluate(a, []byte("aa")).IsEmpty() {
		t.Fatal("even-length document must produce no output")
	}
}

func TestNoMatch(t *testing.T) {
	a := gen.Figure3EVA()
	res := core.Evaluate(a, []byte("zzz"))
	if !res.IsEmpty() {
		t.Fatal("expected empty result")
	}
	if m, ok := res.Iterator().Next(); ok {
		t.Fatalf("unexpected mapping %v", m)
	}
}

func TestIteratorScratchReuseAndClone(t *testing.T) {
	a := gen.Figure3EVA()
	res := core.Evaluate(a, []byte("ab"))
	it := res.Iterator()
	m1, ok := it.Next()
	if !ok {
		t.Fatal("expected first mapping")
	}
	c1 := m1.Clone()
	m2, ok := it.Next()
	if !ok {
		t.Fatal("expected second mapping")
	}
	// The scratch buffer is reused: m1 and m2 are the same object.
	if m1 != m2 {
		t.Fatal("iterator should reuse its scratch mapping")
	}
	if c1.Key() == m2.Key() {
		t.Fatal("clone must capture the earlier value")
	}
}

func TestResultSupportsMultipleIterations(t *testing.T) {
	a := gen.Figure3EVA()
	res := core.Evaluate(a, []byte("ab"))
	first := res.Collect()
	second := res.Collect()
	if !first.Equal(second) {
		t.Fatal("re-enumeration must yield identical results")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	a := gen.Figure3EVA()
	res := core.Evaluate(a, []byte("ab"))
	n := 0
	res.Enumerate(func(*model.Mapping) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("enumerated %d, want early stop at 2", n)
	}
}

func TestCountFigure3(t *testing.T) {
	a := gen.Figure3EVA()
	c, exact := core.CountDoc(a, []byte("ab"))
	if !exact || c != 3 {
		t.Fatalf("Count = %d (exact=%v), want 3", c, exact)
	}
	if big := core.CountDocBig(a, []byte("ab")); big.Int64() != 3 {
		t.Fatalf("CountBig = %v, want 3", big)
	}
}

func TestCountMatchesEnumerationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	docs := [][]byte{nil, []byte("a"), []byte("ab"), []byte("abab"), []byte("bbaa")}
	for i := 0; i < 30; i++ {
		v := gen.RandomVA(rng, 2+rng.Intn(4), 1+rng.Intn(2), "ab")
		e := v.ToExtended()
		d := e.Determinize().Sequentialize()
		for _, doc := range docs {
			res := core.Evaluate(d, doc)
			enum := 0
			res.Enumerate(func(*model.Mapping) bool { enum++; return true })
			cnt, exact := core.CountDoc(d, doc)
			if !exact || cnt != uint64(enum) {
				t.Fatalf("case %d doc %q: Count = %d, enumerated %d", i, doc, cnt, enum)
			}
			if big := core.CountDocBig(d, doc); big.Uint64() != cnt {
				t.Fatalf("case %d doc %q: CountBig = %v, Count = %d", i, doc, big, cnt)
			}
		}
	}
}

func TestDifferentialVAPipeline(t *testing.T) {
	// Random VA → det seVA → Algorithm 1, against the exhaustive VA
	// reference evaluator.
	rng := rand.New(rand.NewSource(23))
	docs := [][]byte{nil, []byte("a"), []byte("b"), []byte("ab"), []byte("ba"),
		[]byte("aab"), []byte("abb"), []byte("abab")}
	for i := 0; i < 60; i++ {
		v := gen.RandomVA(rng, 2+rng.Intn(4), 1+rng.Intn(3), "ab")
		e := v.ToExtended()
		d := e.Determinize()
		if !e.IsSequential() {
			d = d.Sequentialize()
		}
		for _, doc := range docs {
			want := v.Eval(doc)
			got := core.Evaluate(d, doc).Collect()
			if !got.Equal(want) {
				t.Fatalf("case %d doc %q:\n%v\nVA:\n%s", i, doc, want.Diff(got, 10), v)
			}
		}
	}
}

func TestDifferentialRGXPipeline(t *testing.T) {
	// Random regex formulas (possibly non-sequential) through the whole
	// pipeline, against the Table 1 reference interpreter. This is the
	// Table 1 conformance experiment (E1) in miniature; the bench harness
	// scales it up.
	rng := rand.New(rand.NewSource(37))
	docs := [][]byte{nil, []byte("a"), []byte("b"), []byte("ab"), []byte("ba"), []byte("aab")}
	for i := 0; i < 60; i++ {
		node := gen.RandomRGX(rng, 3, []string{"x", "y"}, "ab")
		want := make([]*model.MappingSet, len(docs))
		var err error
		for j, doc := range docs {
			want[j], err = rgx.Evaluate(node, doc)
			if err != nil {
				t.Fatal(err)
			}
		}
		d := pipelineNode(t, node)
		for j, doc := range docs {
			got := core.Evaluate(d, doc).Collect()
			if !got.Equal(want[j]) {
				t.Fatalf("case %d (%s) doc %q:\n%v", i, node, doc, want[j].Diff(got, 10))
			}
		}
	}
}

func TestLazyMatchesStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	docs := [][]byte{nil, []byte("ab"), []byte("abab"), []byte("bbbaaa")}
	for i := 0; i < 25; i++ {
		v := gen.RandomVA(rng, 2+rng.Intn(4), 1+rng.Intn(2), "ab")
		e := v.ToExtended()
		var seq *eva.EVA
		if e.IsSequential() {
			seq = e
		} else {
			seq = e.Sequentialize()
		}
		strict := seq.Determinize()
		lazy := eva.NewLazy(seq)
		for _, doc := range docs {
			want := core.Evaluate(strict, doc).Collect()
			got := core.Evaluate(lazy, doc).Collect()
			if !got.Equal(want) {
				t.Fatalf("case %d doc %q: lazy disagrees with strict:\n%v",
					i, doc, want.Diff(got, 10))
			}
		}
		if lazy.StatesDiscovered() > strict.NumStates() {
			t.Fatalf("case %d: lazy discovered %d states, strict has %d",
				i, lazy.StatesDiscovered(), strict.NumStates())
		}
	}
}

func TestConstantDelaySteps(t *testing.T) {
	// The structural delay bound: the number of traversal steps between
	// consecutive outputs must not grow with the document. Use the
	// nested-variable spanner (quadratic output count).
	d := pipeline(t, gen.NestedPattern(2))
	var prevMax uint64
	for _, n := range []int{8, 16, 32, 64} {
		doc := gen.RandomDoc(n, "ab", 1)
		res := core.Evaluate(d, doc)
		it := res.Iterator()
		var last uint64
		var maxGap uint64
		outputs := 0
		for {
			_, ok := it.Next()
			if !ok {
				break
			}
			gap := it.Steps() - last
			last = it.Steps()
			if gap > maxGap {
				maxGap = gap
			}
			outputs++
		}
		if outputs == 0 {
			t.Fatalf("n=%d: no outputs", n)
		}
		if prevMax != 0 && maxGap > prevMax {
			t.Fatalf("n=%d: max delay gap %d grew beyond %d — delay is not constant",
				n, maxGap, prevMax)
		}
		if maxGap > prevMax {
			prevMax = maxGap
		}
	}
}

func TestNestedOutputCardinality(t *testing.T) {
	// The introduction's example: with 2 nested variables the output size
	// is the number of (sub)span pairs. For x1 ⊇ x2 over a document of
	// length n, |output| = Σ over spans s1 of (number of subspans of s1).
	d := pipeline(t, gen.NestedPattern(2))
	for _, n := range []int{1, 2, 3, 4, 5} {
		doc := gen.RandomDoc(n, "a", 1)
		cnt, exact := core.CountDoc(d, doc)
		if !exact {
			t.Fatal("overflow unexpected")
		}
		want := uint64(0)
		for i := 1; i <= n+1; i++ {
			for j := i; j <= n+1; j++ {
				// s1 = [i, j⟩; subspans of s1: pairs i ≤ k ≤ m ≤ j.
				k := j - i + 1
				want += uint64(k * (k + 1) / 2)
			}
		}
		if cnt != want {
			t.Fatalf("n=%d: count = %d, want %d", n, cnt, want)
		}
	}
}

func TestCountOverflowDetection(t *testing.T) {
	// 12 nested variables over 60 bytes overflow uint64; Count must say so
	// and CountBig must hold the exact value.
	node := rgx.MustParse(gen.NestedPattern(12))
	v, err := rgx.Compile(node)
	if err != nil {
		t.Fatal(err)
	}
	e := v.ToExtended()
	d := e.Determinize()
	doc := gen.RandomDoc(60, "a", 1)
	cnt, exact := core.CountDoc(d, doc)
	big := core.CountDocBig(d, doc)
	if exact {
		// Not an error per se, but with 12 nested vars over 60 bytes the
		// count is astronomically larger than 2^64.
		t.Fatalf("expected overflow, got exact count %d (big = %v)", cnt, big)
	}
	if big.BitLen() <= 64 {
		t.Fatalf("CountBig = %v should exceed uint64", big)
	}
}

func TestEvaluateWithVAAtInterface(t *testing.T) {
	// A deterministic sequential eVA expressed via the FromExtended VA
	// re-extended: exercises mixed pipelines end to end.
	a := gen.Figure3EVA()
	roundtrip := va.FromExtended(a).ToExtended().Determinize()
	want := a.Eval([]byte("ab"))
	got := core.Evaluate(roundtrip, []byte("ab")).Collect()
	if !got.Equal(want) {
		t.Fatalf("round-tripped automaton disagrees:\n%v", want.Diff(got, 10))
	}
}

// FuzzLiveSetMatchesPerState checks the program replay against the
// per-state reference passes: for random formulas over "abc" and random
// documents (with 'd' to kill runs), on the strict frozen table and on the
// lazy one, and under the default memo budget and one that flushes on
// every round,
//   - the replay builds the same DAG cell for cell and the same final
//     lists as the per-state pass with the same lookahead;
//   - its ordered enumeration equals the unpruned per-state pass's, so the
//     pruning drops no output and reorders none;
//   - the counting pass agrees with the per-state counter.
func FuzzLiveSetMatchesPerState(f *testing.F) {
	f.Add(uint64(1), uint8(2), []byte("abcab"))
	f.Add(uint64(7), uint8(3), []byte("aabbccabc"))
	f.Add(uint64(42), uint8(1), []byte(""))
	f.Add(uint64(1234), uint8(3), []byte("abcdabca"))
	f.Fuzz(func(t *testing.T, seed uint64, depth uint8, raw []byte) {
		node := gen.RandomRGX(rand.New(rand.NewSource(int64(seed))), int(depth%4)+1, []string{"x", "y", "z", "w"}, "abc")
		v, err := rgx.Compile(node)
		if err != nil {
			t.Skip()
		}
		seq := v.ToExtended().Trim()
		if !seq.IsSequential() {
			seq = seq.Sequentialize().Trim()
		}
		strict, err := seq.Compile()
		if err != nil {
			t.Skip() // e.g. dense compilation limits
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		doc := make([]byte, len(raw))
		for i, b := range raw {
			doc[i] = "abcd"[b%4]
		}
		check := func(a core.Automaton, want *big.Int, flush bool) {
			if flush {
				defer core.SetMemoBudget(0)()
			}
			got, ref := core.Evaluate(a, doc), core.EvaluatePerState(a, doc)
			if !core.SameDAG(got, ref) || core.DumpDAG(got) != core.DumpDAG(ref) {
				t.Fatalf("%s on %q (%T, flush %v): replay built\n%s\nper-state reference built\n%s",
					node, doc, a, flush, core.DumpDAG(got), core.DumpDAG(ref))
			}
			if k, diff := firstDifference(got, core.EvaluateUnpruned(a, doc), 5000); diff != "" {
				t.Fatalf("%s on %q (%T, flush %v): output %d differs from the unpruned pass: %s", node, doc, a, flush, k, diff)
			}
			if n := core.CountDocBig(a, doc); n.Cmp(want) != 0 {
				t.Fatalf("%s on %q (%T, flush %v): count %v, per-state counter %v", node, doc, a, flush, n, want)
			}
		}
		for _, a := range []core.Automaton{strict, eva.NewLazy(seq)} {
			want := core.CountPerState(a, doc)
			check(a, want, false)
			check(a, want, true)
		}
	})
}

// firstDifference compares the first limit outputs of two enumerations in
// order, and that both end together when either ends within the limit. It
// returns the index and a description of the first difference, or "".
func firstDifference(a, b *core.Result, limit int) (int, string) {
	ia, ib := a.Iterator(), b.Iterator()
	for k := 0; k < limit; k++ {
		ma, oka := ia.Next()
		mb, okb := ib.Next()
		switch {
		case oka != okb:
			return k, fmt.Sprintf("one enumeration ended (%v, %v)", oka, okb)
		case !oka:
			return 0, ""
		case !ma.Equal(mb):
			return k, fmt.Sprintf("%v vs %v", ma, mb)
		}
	}
	return 0, ""
}
