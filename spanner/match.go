package spanner

import (
	"fmt"
	"sort"
	"strings"

	"spanners/internal/core"
	"spanners/internal/model"
)

// Span is a half-open byte range [Start, End) in a document, using 0-based
// offsets (the paper's 1-based span [i, j⟩ maps to [i-1, j-1)).
type Span struct {
	Start, End int
}

// Len returns End - Start.
func (s Span) Len() int { return s.End - s.Start }

// String renders the span as "[start,end)".
func (s Span) String() string { return fmt.Sprintf("[%d,%d)", s.Start, s.End) }

// Binding is one variable assignment of a match.
type Binding struct {
	Var  string
	Span Span
	Text string
}

// Match is one output mapping: a partial assignment of the pattern's
// capture variables to spans of the document. Matches handed out by
// Iterator.Next and Enumerate are reused scratch buffers, whose span table
// is the enumeration's own output buffer; Clone to retain.
type Match struct {
	doc   []byte
	names []string
	reg   *model.Registry
	spans []model.Span // 1-based; zero Span = variable unassigned
}

// Vars returns the names of all pattern variables (assigned or not) in
// registry order. The slice is shared; do not mutate.
func (m *Match) Vars() []string { return m.names }

// Doc returns the document the match's spans index into, so a caller can
// slice a span's content without the string allocation of Text. The slice
// is shared; do not mutate.
func (m *Match) Doc() []byte { return m.doc }

// Span returns the span assigned to the named variable and whether the
// variable is assigned in this match.
func (m *Match) Span(name string) (Span, bool) {
	v, ok := m.reg.Lookup(name)
	if !ok {
		return Span{}, false
	}
	return m.SpanAt(int(v))
}

// SpanAt is Span for the variable Vars()[i], without the name lookup: a
// caller emitting many matches of one spanner resolves its names to
// indices once and reads every match by index.
func (m *Match) SpanAt(i int) (Span, bool) {
	s := m.spans[i]
	if s.IsZero() {
		return Span{}, false
	}
	return Span{Start: s.Start - 1, End: s.End - 1}, true
}

// Text returns the document content of the named variable's span.
func (m *Match) Text(name string) (string, bool) {
	v, ok := m.reg.Lookup(name)
	if !ok {
		return "", false
	}
	s := m.spans[v]
	if s.IsZero() {
		return "", false
	}
	return s.Text(m.doc), true
}

// Bindings returns the assigned variables with their spans and contents, in
// registry order.
func (m *Match) Bindings() []Binding {
	out := make([]Binding, 0, len(m.spans))
	for v, s := range m.spans {
		if s.IsZero() {
			continue
		}
		out = append(out, Binding{
			Var:  m.names[v],
			Span: Span{Start: s.Start - 1, End: s.End - 1},
			Text: s.Text(m.doc),
		})
	}
	return out
}

// Clone returns an independent copy of the match.
func (m *Match) Clone() *Match {
	c := &Match{doc: m.doc, names: m.names, reg: m.reg, spans: make([]model.Span, len(m.spans))}
	copy(c.spans, m.spans)
	return c
}

// matchAlloc hands out Match values and span storage in chunks of
// geometrically growing size, so collecting k matches costs O(log k)
// allocations instead of 2k without over-allocating for small documents.
// The handed-out matches remain immutable and independent; they merely
// share backing arrays, so retaining one match keeps its chunk alive.
type matchAlloc struct {
	matches []Match
	spans   []model.Span
	next    int
}

func (a *matchAlloc) clone(m *Match) *Match {
	nv := len(m.spans)
	if len(a.matches) == 0 {
		switch {
		case a.next == 0:
			a.next = 8
		case a.next < 256:
			a.next *= 2
		}
		a.matches = make([]Match, a.next)
		a.spans = make([]model.Span, a.next*nv)
	}
	c := &a.matches[0]
	a.matches = a.matches[1:]
	*c = Match{doc: m.doc, names: m.names, reg: m.reg, spans: a.spans[:nv:nv]}
	a.spans = a.spans[nv:]
	copy(c.spans, m.spans)
	return c
}

// Collect enumerates doc, appends an independent copy of every match to
// dst and returns the extended slice. limit > 0 caps the number of
// collected matches. Unlike Enumerate's scratch buffers, the returned
// matches are retainable as-is, and the clone allocations are amortized
// across the batch — the convenient form for callers that want an owned
// result set rather than Enumerate's zero-copy callback discipline.
func (s *Spanner) Collect(dst []*Match, doc []byte, limit int) []*Match {
	var a matchAlloc
	start := len(dst)
	s.Enumerate(doc, func(m *Match) bool {
		dst = append(dst, a.clone(m))
		return limit == 0 || len(dst)-start < limit
	})
	return dst
}

// Key returns a canonical encoding of the match — assigned variables in
// lexicographic order with 0-based spans. Two matches over the same
// document are equal exactly when their keys are equal.
func (m *Match) Key() string {
	bs := m.Bindings()
	sort.Slice(bs, func(i, j int) bool { return bs[i].Var < bs[j].Var })
	var b strings.Builder
	for i, bd := range bs {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s=%s", bd.Var, bd.Span)
	}
	return b.String()
}

// String renders the match like "{user=[0,4) "John"}".
func (m *Match) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, bd := range m.Bindings() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s %q", bd.Var, bd.Span, bd.Text)
	}
	b.WriteByte('}')
	return b.String()
}

// Iterator is a constant-delay pull iterator over the matches of one
// document (Algorithm 2): the preprocessing pass has already run, and each
// Next performs O(ℓ) work in the number of variables, independent of the
// document length. An Iterator is not goroutine-safe; the Spanner can hand
// out many independent Iterators concurrently.
type Iterator struct {
	it *core.Iterator
	m  *Match
}

// Next returns the next match, or ok = false when the enumeration is
// complete. The *Match is a scratch buffer reused across calls; Clone it to
// retain it.
func (it *Iterator) Next() (m *Match, ok bool) {
	mm, ok := it.it.Next()
	if !ok {
		return nil, false
	}
	it.m.spans = mm.Spans() // the enumeration's own span table: nothing is copied
	return it.m, true
}
