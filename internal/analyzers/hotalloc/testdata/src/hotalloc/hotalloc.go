// Fixture for the hotalloc analyzer.
package hotalloc

import (
	"bytes"
	"fmt"
)

type thing struct{ id int }

type scratch struct {
	buf   []int
	nodes []thing
}

// helper allocates; hot-path callers are poisoned through the summary.
func helper() *thing {
	return &thing{id: 1}
}

// scan is allocation-free: the only call is allowlisted.
func scan(p []byte) int { return bytes.IndexByte(p, 'x') }

// consume has an interface parameter but does not itself allocate.
func consume(v any) bool { return v != nil }

// next is the arena idiom: growth under a cap guard, appends evidenced
// by the guard. Allocation-free in the steady state.
func (s *scratch) next() *thing {
	if len(s.nodes) == cap(s.nodes) {
		s.nodes = make([]thing, 0, 64)
	}
	s.nodes = append(s.nodes, thing{})
	return &s.nodes[len(s.nodes)-1]
}

type stepper interface{ step(int) int }

// Hot is a clean steady-state loop: truncation-evidenced appends,
// allowlisted std calls, clean same-package callees, value literals.
//
// spanlint:hotpath
func (s *scratch) Hot(doc []byte) int {
	n := 0
	s.buf = s.buf[:0]
	for _, b := range doc {
		n += scan(doc)
		s.buf = append(s.buf, int(b))
		_ = s.next()
		_ = thing{id: n}
	}
	return n
}

// HotDynamic calls through an interface: dynamic dispatch is not
// resolved, so nothing is reported (annotate the implementation).
//
// spanlint:hotpath
func HotDynamic(st stepper, n int) int { return st.step(n) }

// HotLazy initializes under a nil check: exempt cold path.
//
// spanlint:hotpath
func (s *scratch) HotLazy() int {
	if s.buf == nil {
		s.buf = make([]int, 0, 16)
	}
	return len(s.buf)
}

// BadLit escapes a composite literal.
//
// spanlint:hotpath
func BadLit() *thing {
	return &thing{id: 2} // want `BadLit is marked spanlint:hotpath but takes the address of a composite literal`
}

// BadSliceLit builds a slice literal per call.
//
// spanlint:hotpath
func BadSliceLit(n int) []int {
	return []int{n, n} // want `builds a slice literal, which allocates`
}

// BadMake allocates per call.
//
// spanlint:hotpath
func BadMake(n int) []int {
	return make([]int, n) // want `calls make, which allocates`
}

// BadAppend grows without capacity evidence.
//
// spanlint:hotpath
func BadAppend(xs []int, v int) []int {
	return append(xs, v) // want `appends without capacity evidence`
}

// BadConv converts between string and bytes.
//
// spanlint:hotpath
func BadConv(p []byte) string {
	return string(p) // want `converts between string and \[\]byte`
}

// BadConcat concatenates non-constant strings.
//
// spanlint:hotpath
func BadConcat(a, b string) string {
	return a + b // want `concatenates strings, which allocates`
}

// BadBox boxes a live value into an interface parameter.
//
// spanlint:hotpath
func BadBox(n int) bool {
	return consume(n) // want `boxes an argument into an interface parameter`
}

// BadCallee reaches an allocation through a same-package call.
//
// spanlint:hotpath
func BadCallee() *thing {
	return helper() // want `BadCallee is marked spanlint:hotpath but calls helper, which may allocate`
}

// HotParen hides the same callee behind parentheses; it still resolves.
//
// spanlint:hotpath
func HotParen() *thing {
	return (helper)() // want `HotParen is marked spanlint:hotpath but calls helper, which may allocate`
}

// BadFmt calls into fmt, which has no allocation-free guarantee.
//
// spanlint:hotpath
func BadFmt(n int) string {
	return fmt.Sprintf("%d", n) // want `boxes an argument into an interface parameter` `calls fmt.Sprintf \(no allocation-free guarantee\)`
}

// BadClosure creates a closure per call.
//
// spanlint:hotpath
func BadClosure(n int) func() int {
	return func() int { return n } // want `creates a closure, which allocates`
}

// BadGo starts a goroutine.
//
// spanlint:hotpath
func BadGo(ch chan int) {
	go consume(ch) // want `starts a goroutine, which allocates`
}

// Waived documents a deliberate cold-path allocation with the per-site
// escape hatch; no diagnostic survives.
//
// spanlint:hotpath
func Waived(n int) []int {
	//spanlint:ignore hotalloc deliberate one-time rebuild, measured cold
	return make([]int, n)
}

// Unmarked allocates freely: without the annotation nothing is checked.
func Unmarked(n int) []int {
	return make([]int, n)
}
