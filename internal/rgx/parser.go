package rgx

import (
	"fmt"

	"spanners/internal/model"
)

// Parse parses the concrete regex-formula syntax into an AST.
//
// Syntax summary (close to classical regexes, with REmatch-style captures):
//
//	ab          concatenation
//	a|b         union (lowest precedence)
//	a* a+ a?    closure, positive closure, option (postfix, highest)
//	(γ)         grouping; () is ε
//	!x{γ}       capture the span matched by γ in variable x
//	.           any byte
//	[a-z0-9]    byte class; [^…] negated class
//	\d \w \s    digit / word / whitespace classes (and \D \W \S negations)
//	\n \t \r    control escapes; \xNN hex escape; \* etc. literal escapes
//
// The + and ? operators are desugared into the paper's five core forms:
// γ+ becomes γ·γ* and γ? becomes γ|(). Note that when γ captures
// variables, repeating it cannot re-bind them (the Table 1 concatenation
// semantics requires disjoint domains), so e.g. (!x{a})+ matches exactly
// one iteration — the same behaviour as writing the expansion by hand.
func Parse(input string) (Node, error) {
	p := &parser{src: input}
	n, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errorf("unexpected %q", p.src[p.pos])
	}
	return n, nil
}

// MustParse is Parse but panics on error; for tests and fixed patterns.
func MustParse(input string) Node {
	n, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return n
}

// maxNesting bounds how deeply a formula may nest (groups, captures, and
// postfix-operator chains all count). Parsing is recursive and every later
// pipeline stage (Thompson build, semantics, printing) recurses over the
// AST, so without a bound a hostile pattern like strings.Repeat("(", 1e6)
// — or "a" followed by a million '?' — would overflow the goroutine stack,
// which is an unrecoverable crash for a process serving untrusted queries.
// 1000 levels is far beyond any legitimate formula while keeping the
// worst-case recursion depth trivially stack-safe.
const maxNesting = 1000

type parser struct {
	src   string
	pos   int
	depth int
	// stack holds the operands of the concatenations and unions being
	// parsed, innermost last; block backs the Subs lists of the AST.
	stack []Node
	block []Node
}

// subs returns a copy of ns for a Subs list. The copies are carved from
// shared blocks, clipped to their length; an AST is never mutated once
// built.
func (p *parser) subs(ns ...Node) []Node {
	if len(p.block)+len(ns) > cap(p.block) {
		p.block = make([]Node, 0, max(len(ns), len(p.src)))
	}
	start := len(p.block)
	p.block = append(p.block, ns...)
	return p.block[start:len(p.block):len(p.block)]
}

// enter charges one nesting level, failing once the formula nests deeper
// than maxNesting; leave returns it.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxNesting {
		return p.errorf("pattern nests deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte { return p.src[p.pos] }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("rgx: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseAlt() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	base := len(p.stack)
	defer func() { p.stack = p.stack[:base] }()
	for {
		n, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, n)
		if p.eof() || p.peek() != '|' {
			break
		}
		p.pos++
	}
	if len(p.stack) == base+1 {
		return p.stack[base], nil
	}
	return Alt{Subs: p.subs(p.stack[base:]...)}, nil
}

func (p *parser) parseConcat() (Node, error) {
	base := len(p.stack)
	defer func() { p.stack = p.stack[:base] }()
	for !p.eof() {
		switch p.peek() {
		case '|', ')':
			// End of this branch.
			goto done
		case '}':
			goto done
		}
		n, err := p.parseRepeat()
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, n)
	}
done:
	switch len(p.stack) - base {
	case 0:
		return Empty{}, nil
	case 1:
		return p.stack[base], nil
	}
	return Concat{Subs: p.subs(p.stack[base:]...)}, nil
}

func (p *parser) parseRepeat() (Node, error) {
	n, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	// Each postfix operator wraps the atom one AST level deeper without any
	// parser recursion, so a chain like "a????…" deepens the tree just as
	// surely as nested groups; charge the chain against the same budget.
	chain := 0
	for !p.eof() {
		if c := p.peek(); c == '*' || c == '+' || c == '?' {
			chain++
			if p.depth+chain > maxNesting {
				return nil, p.errorf("pattern nests deeper than %d levels", maxNesting)
			}
		}
		switch p.peek() {
		case '*':
			p.pos++
			n = Star{Sub: n}
		case '+':
			p.pos++
			n = Concat{Subs: p.subs(n, Star{Sub: n})}
		case '?':
			p.pos++
			n = Alt{Subs: p.subs(n, Empty{})}
		default:
			return n, nil
		}
	}
	return n, nil
}

func (p *parser) parseAtom() (Node, error) {
	if p.eof() {
		return nil, p.errorf("unexpected end of pattern")
	}
	switch c := p.peek(); c {
	case '(':
		p.pos++
		n, err := p.parseAlt()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek() != ')' {
			return nil, p.errorf("missing )")
		}
		p.pos++
		return n, nil
	case '!':
		return p.parseCapture()
	case '[':
		return p.parseClass()
	case '.':
		p.pos++
		return Class{Set: model.AnyByte()}, nil
	case '\\':
		return p.parseEscape()
	case '*', '+', '?':
		return nil, p.errorf("%q has nothing to repeat", c)
	case ')':
		return nil, p.errorf("unmatched )")
	case '{', '}':
		return nil, p.errorf("bare %q; escape it or use !name{…} for captures", c)
	default:
		p.pos++
		return Class{Set: model.Byte(c)}, nil
	}
}

// IsIdentByte reports whether c may appear in a capture-variable name.
// The query syntax of the spanner facade shares this predicate so its
// project[...] lists accept exactly the names patterns can bind.
func IsIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func (p *parser) parseCapture() (Node, error) {
	p.pos++ // consume '!'
	start := p.pos
	for !p.eof() && IsIdentByte(p.peek()) {
		p.pos++
	}
	if p.pos == start {
		return nil, p.errorf("capture needs a variable name after !")
	}
	name := p.src[start:p.pos]
	if p.eof() || p.peek() != '{' {
		return nil, p.errorf("capture !%s needs a {…} body", name)
	}
	p.pos++
	sub, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	if p.eof() || p.peek() != '}' {
		return nil, p.errorf("missing } closing capture !%s", name)
	}
	p.pos++
	return Capture{Var: name, Sub: sub}, nil
}

func (p *parser) parseClass() (Node, error) {
	p.pos++ // consume '['
	var set model.ByteSet
	negate := false
	if !p.eof() && p.peek() == '^' {
		negate = true
		p.pos++
	}
	first := true
	for {
		if p.eof() {
			return nil, p.errorf("missing ] closing class")
		}
		c := p.peek()
		if c == ']' && !first {
			p.pos++
			break
		}
		first = false
		lo, short, isShort, err := p.classElem()
		if err != nil {
			return nil, err
		}
		if isShort {
			set = set.Union(short)
			continue
		}
		if !p.eof() && p.peek() == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++
			hi, _, isShort, err := p.classElem()
			if err != nil {
				return nil, err
			}
			if isShort {
				return nil, p.errorf("shorthand class cannot be a range endpoint")
			}
			if hi < lo {
				return nil, p.errorf("invalid range %c-%c", lo, hi)
			}
			set.AddRange(lo, hi)
		} else {
			set.Add(lo)
		}
	}
	if negate {
		set = set.Negate()
	}
	if set.IsEmpty() {
		return nil, p.errorf("empty byte class")
	}
	return Class{Set: set}, nil
}

// classElem consumes one class element: either a single byte (possibly an
// escape) or a shorthand class like \d, returned through the ByteSet.
func (p *parser) classElem() (byte, model.ByteSet, bool, error) {
	var none model.ByteSet
	c := p.peek()
	if c != '\\' {
		p.pos++
		return c, none, false, nil
	}
	p.pos++
	if p.eof() {
		return 0, none, false, p.errorf("trailing backslash")
	}
	e := p.peek()
	p.pos++
	if short, ok := shorthandClass(e); ok {
		return 0, short, true, nil
	}
	switch e {
	case 'n':
		return '\n', none, false, nil
	case 't':
		return '\t', none, false, nil
	case 'r':
		return '\r', none, false, nil
	case 'x':
		b, err := p.hexByte()
		return b, none, false, err
	default:
		return e, none, false, nil
	}
}

func (p *parser) hexByte() (byte, error) {
	if p.pos+2 > len(p.src) {
		return 0, p.errorf(`\x needs two hex digits`)
	}
	hi, ok1 := hexVal(p.src[p.pos])
	lo, ok2 := hexVal(p.src[p.pos+1])
	if !ok1 || !ok2 {
		return 0, p.errorf(`\x needs two hex digits`)
	}
	p.pos += 2
	return hi<<4 | lo, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func shorthandClass(e byte) (model.ByteSet, bool) {
	var s model.ByteSet
	switch e {
	case 'd', 'D':
		s.AddRange('0', '9')
	case 'w', 'W':
		s.AddRange('a', 'z')
		s.AddRange('A', 'Z')
		s.AddRange('0', '9')
		s.Add('_')
	case 's', 'S':
		s.AddString(" \t\n\r\f\v")
	default:
		return s, false
	}
	if e == 'D' || e == 'W' || e == 'S' {
		s = s.Negate()
	}
	return s, true
}

func (p *parser) parseEscape() (Node, error) {
	p.pos++ // consume backslash
	if p.eof() {
		return nil, p.errorf("trailing backslash")
	}
	e := p.peek()
	p.pos++
	if set, ok := shorthandClass(e); ok {
		return Class{Set: set}, nil
	}
	switch e {
	case 'n':
		return Class{Set: model.Byte('\n')}, nil
	case 't':
		return Class{Set: model.Byte('\t')}, nil
	case 'r':
		return Class{Set: model.Byte('\r')}, nil
	case 'x':
		b, err := p.hexByte()
		if err != nil {
			return nil, err
		}
		return Class{Set: model.Byte(b)}, nil
	default:
		return Class{Set: model.Byte(e)}, nil
	}
}
