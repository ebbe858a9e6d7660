package eva

import (
	"bytes"
	"testing"

	"spanners/internal/model"
)

// scanEVA builds the canonical `.*` scan shape: q0 self-loops on every
// byte and opens x into a chain reading lit, whose last state self-loops
// on every byte and accepts (the `.*` tail). With lead > 0, q0 is pushed
// behind a lead-in chain of `.` edges, mimicking Thompson construction
// output where the self-loop state is not the initial state.
func scanEVA(t *testing.T, lit string, lead int) *EVA {
	t.Helper()
	reg := model.NewRegistry()
	x := reg.MustAdd("x")
	a := New(reg)
	first := a.AddState()
	q := first
	for i := 0; i < lead; i++ {
		next := a.AddState()
		a.AddLetter(q, model.AnyByte(), next)
		q = next
	}
	a.SetInitial(first)
	a.AddLetter(q, model.AnyByte(), q)
	cur := a.AddState()
	a.AddCapture(q, model.SetOf(model.Open(x)), cur)
	for i := 0; i < len(lit); i++ {
		next := a.AddState()
		a.AddByte(cur, lit[i], next)
		cur = next
	}
	a.AddLetter(cur, model.AnyByte(), cur)
	a.SetFinal(cur, true)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// prefilter holds the scan-anchor facts the facade reports.
type prefilter struct {
	LeaveInitial model.ByteSet
	Literal      string
	Accelerated  bool
}

// prefilterOf reads the scan-anchor facts off a lazy determinizer of a, as
// the facade's lazy mode does.
func prefilterOf(a *EVA) prefilter {
	l := NewLazy(a)
	leave, ok := l.ScanLeaveBytes()
	return prefilter{leave, l.ScanLiteral(), ok}
}

func TestAnalyzePrefilterLiteral(t *testing.T) {
	pf := prefilterOf(scanEVA(t, "www.", 0))
	if !pf.Accelerated || pf.Literal != "www." {
		t.Fatalf("prefilter = %+v, want literal %q", pf, "www.")
	}
	if got := pf.LeaveInitial.Bytes(); len(got) != 1 || got[0] != 'w' {
		t.Fatalf("leave bytes = %q, want {w}", got)
	}
}

func TestFindScanStateSkipsLeadIn(t *testing.T) {
	// The initial state only reaches the self-loop after a few `.` steps;
	// the analysis must still find the anchor and its literal.
	pf := prefilterOf(scanEVA(t, "ab", 3))
	if !pf.Accelerated || pf.Literal != "ab" {
		t.Fatalf("prefilter with lead-in = %+v", pf)
	}
}

func TestAnalyzeAccelSingleByteNoLiteral(t *testing.T) {
	// A one-byte "literal" is not worth bytes.Index; the state must stay
	// in memchr mode over its single exit byte.
	a := scanEVA(t, "z", 0)
	l := NewLazy(a)
	rec := l.analyzeAccel(l.findScanState(l.Initial()), true)
	if rec.mode != accelMemchr || len(rec.exits) != 1 || rec.exits[0] != 'z' {
		t.Fatalf("record = %+v, want memchr on 'z'", rec)
	}
}

func TestCompiledAndLazyAccelAgree(t *testing.T) {
	src := scanEVA(t, "abc", 1)
	det := src.Determinize()
	c, err := det.CompileDense()
	if err != nil {
		t.Fatal(err)
	}
	if c.ScanLiteral() != "abc" {
		t.Fatalf("ScanLiteral = %q", c.ScanLiteral())
	}
	if lb, ok := c.ScanLeaveBytes(); !ok || lb.Len() != 1 || !lb.Has('a') {
		t.Fatalf("ScanLeaveBytes = %v %v", lb, ok)
	}
	if c.AcceleratedStates() == 0 || !c.AccelEnabled() {
		t.Fatal("compiled automaton must accelerate")
	}
	l := NewLazy(src)
	doc := []byte("xxxxabxxxabcxx")
	// Drive both AccelSkips from their scan anchors over the same chunk
	// and check they agree (state ids differ between the constructions,
	// so compare behavior, not records).
	cq := c.findScanState(c.Initial())
	lq := l.findScanState(l.Initial())
	if cq < 0 || lq < 0 {
		t.Fatalf("scan states: dense %d lazy %d", cq, lq)
	}
	for lo := 0; lo < len(doc); lo++ {
		if g, w := c.AccelSkip(cq, doc[lo:]), l.AccelSkip(lq, doc[lo:]); g != w {
			t.Fatalf("AccelSkip at %d: dense %d, lazy %d", lo, g, w)
		}
	}
}

func TestDisableAccelDisables(t *testing.T) {
	c, err := scanEVA(t, "ab", 0).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !c.AccelEnabled() {
		t.Fatal("the compiled automaton must accelerate before DisableAccel")
	}
	c.DisableAccel()
	if c.AccelEnabled() || c.AcceleratedStates() != 0 {
		t.Fatal("DisableAccel must disable acceleration")
	}
	if n := c.AccelSkip(c.Initial(), []byte("xxxx")); n != 0 {
		t.Fatalf("disabled AccelSkip = %d", n)
	}
	l := NewLazy(scanEVA(t, "ab", 0))
	l.DisableAccel()
	if l.AccelEnabled() || l.AccelSkip(l.Initial(), []byte("xxxx")) != 0 {
		t.Fatal("DisableAccel must disable the lazy path")
	}
}

func TestLiteralFindOverlapBackoff(t *testing.T) {
	rec := accel{mode: accelLiteral, lit: []byte("abab")}
	for _, tc := range []struct {
		chunk string
		want  int
	}{
		// No occurrence, no overlapping suffix: the whole chunk is inert.
		{"xxxxxx", 6},
		// No occurrence, but the tail is a live literal prefix: stop at
		// the earliest position whose suffix is a prefix of the literal.
		{"xxxxab", 4},
		{"xxxxxa", 5},
		{"xxxaba", 3},
		// Occurrence at r: back off to the earliest overlapping partial,
		// including the occurrence's own lead-in.
		{"xxabab", 2},
		{"xababx", 1},
		{"ababxx", 0},
		// Partial occurrence immediately before the real one.
		{"xabbabab", 4}, // Index=4; [1,4) suffixes "abb","bb","b" aren't prefixes
	} {
		if got := rec.find([]byte(tc.chunk)); got != tc.want {
			t.Errorf("find(%q) = %d, want %d", tc.chunk, got, tc.want)
		}
	}
}

func TestMultiExitStaysMemchrNoLiteral(t *testing.T) {
	// `.*` into x{a+b}: both 'a' and 'b' keep the capture target alive, so
	// the scan state has two exit bytes. Literal extraction requires a
	// unique exit; the state must still accelerate via multi-byte memchr.
	reg := model.NewRegistry()
	x := reg.MustAdd("x")
	a := New(reg)
	q0 := a.AddState()
	a.SetInitial(q0)
	a.AddLetter(q0, model.AnyByte(), q0)
	s1 := a.AddState()
	a.AddCapture(q0, model.SetOf(model.Open(x)), s1)
	a.AddByte(s1, 'a', s1) // a+
	s2 := a.AddState()
	a.AddByte(s1, 'b', s2)
	a.AddLetter(s2, model.AnyByte(), s2)
	a.SetFinal(s2, true)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	pf := prefilterOf(a)
	if !pf.Accelerated {
		t.Fatal("must accelerate on the two exit bytes")
	}
	if pf.Literal != "" {
		t.Fatalf("literal %q extracted despite two exit bytes", pf.Literal)
	}
	want := pf.LeaveInitial
	if want.Len() != 2 || !want.Has('a') || !want.Has('b') {
		t.Fatalf("leave bytes = %v, want {a, b}", want)
	}
}

func TestAccelSkipNeverSkipsExitBytes(t *testing.T) {
	c, err := scanEVA(t, "www.", 2).Determinize().CompileDense()
	if err != nil {
		t.Fatal(err)
	}
	q := c.findScanState(c.Initial())
	lit := []byte("www.")
	doc := []byte("xyz wxy www.hostw ww.x wwwww www.a")
	for lo := 0; lo <= len(doc); lo++ {
		chunk := doc[lo:]
		n := c.AccelSkip(q, chunk)
		if n < 0 || n > len(chunk) {
			t.Fatalf("skip %d out of range at %d", n, lo)
		}
		// Exactness over the skipped region: no occurrence of the literal
		// may start there, and no partial occurrence started there may
		// survive to the chunk boundary (it would straddle into the next
		// chunk with the scanner none the wiser). Partials that die before
		// the resume point are fine — they produce no output.
		for s := 0; s < n; s++ {
			rest := chunk[s:]
			if bytes.HasPrefix(rest, lit) {
				t.Fatalf("skipped a full occurrence at %d+%d", lo, s)
			}
			if len(rest) < len(lit) && bytes.HasPrefix(lit, rest) {
				t.Fatalf("skipped live chunk-tail partial %q at %d+%d", rest, lo, s)
			}
		}
	}
}
