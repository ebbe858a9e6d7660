// Query-expression trees: the declarative face of the spanner algebra.
//
// Pattern, Union, Join and Project build a logical query AST that compiles
// nothing until Compile is called. Compile first runs a logical optimizer
// over the plan — flattening nested unions into one n-ary sum, pushing
// projections below unions and past join sides that do not bind the
// projected variables, deduplicating structurally identical subexpressions,
// and ordering join operands smallest-first — and only then lowers the
// optimized plan through the automaton-level constructions of internal/eva
// into an ordinary *Spanner, so composed queries stay on the same
// constant-delay evaluation path as directly compiled patterns:
//
//	q := spanner.Pattern(`.*!user{[a-z]+}@.*`).
//		Union(spanner.Pattern(`.*!user{[a-z]+}:\d+.*`)).
//		Project("user")
//	s, err := q.Compile()
//
// Queries also round-trip through a concrete syntax (ParseQuery), in which
// regex formulas appear as /…/-delimited literals:
//
//	union(/.*!user{[a-z]+}@.*/, project[user](/.*!user{[a-z]+}:.*/))
//
// A compiled query's Pattern() is exactly this canonical form, so it can be
// parsed and compiled again.
package spanner

import (
	"fmt"
	"strings"
	"time"

	"spanners/internal/rgx"
)

// queryOp is the node kind of a Query tree.
type queryOp int

const (
	opPattern queryOp = iota // leaf: a regex formula
	opUnion                  // n-ary union of the operand match sets
	opJoin                   // n-ary natural join of the operand match sets
	opProject                // restriction of the operand's matches to keep
)

// Query is a node of a lazy query-expression tree. Building a Query parses
// and compiles nothing; errors in the leaf patterns (and plan-level errors
// such as projecting an unbound variable) surface from Compile, Explain and
// Vars. A Query is immutable — the combinators return new nodes — and safe
// for concurrent use; one Query may appear as a subexpression of several
// others, and may be compiled any number of times with different options.
type Query struct {
	op      queryOp
	pattern string   // opPattern: the regex formula source
	subs    []*Query // opUnion/opJoin: ≥1 operands; opProject: exactly 1
	keep    []string // opProject: kept variables, in order, deduplicated
}

// Pattern returns the query leaf matching a single regex formula. The
// pattern is not parsed until the query is compiled or inspected.
func Pattern(pattern string) *Query {
	return &Query{op: opPattern, pattern: pattern}
}

// Union returns the query denoting ⟦q⟧d ∪ ⟦q1⟧d ∪ … over the union of the
// operands' variable sets. A match contributed by one operand leaves the
// other operands' private variables unassigned, following the
// partial-mapping semantics of the paper.
func (q *Query) Union(qs ...*Query) *Query {
	return &Query{op: opUnion, subs: append([]*Query{q}, qs...)}
}

// Join returns the query denoting the natural join ⟦q⟧d ⋈ ⟦q1⟧d ⋈ …: all
// unions of pairwise-compatible matches, one from each operand — pairs must
// bind every shared variable both of them assign to identical spans. A
// variable-free operand acts as a document filter.
func (q *Query) Join(qs ...*Query) *Query {
	return &Query{op: opJoin, subs: append([]*Query{q}, qs...)}
}

// Project returns the query denoting π_vars(⟦q⟧d): each match restricted to
// the given variables, duplicates arising from the restriction collapsed.
// Every name must be bound somewhere in q (checked at Compile). Projecting
// onto no variables yields a boolean query whose only possible match is the
// empty mapping, present exactly when q has any match.
func (q *Query) Project(vars ...string) *Query {
	return &Query{op: opProject, subs: []*Query{q}, keep: dedupNames(vars)}
}

// dedupNames removes duplicate names preserving first-occurrence order. The
// result is never nil, so a projection onto no variables stays
// distinguishable in the plan.
func dedupNames(names []string) []string {
	out := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// String returns the canonical query syntax: pattern leaves as /…/-escaped
// literals, combinators as union(…), join(…) and project[…](…). The result
// parses back via ParseQuery into a structurally identical query.
func (q *Query) String() string {
	var b strings.Builder
	q.write(&b)
	return b.String()
}

func (q *Query) write(b *strings.Builder) {
	switch q.op {
	case opPattern:
		b.WriteString(quotePattern(q.pattern))
	case opUnion, opJoin:
		if q.op == opUnion {
			b.WriteString("union(")
		} else {
			b.WriteString("join(")
		}
		for i, s := range q.subs {
			if i > 0 {
				b.WriteString(", ")
			}
			s.write(b)
		}
		b.WriteByte(')')
	case opProject:
		b.WriteString("project[")
		b.WriteString(strings.Join(q.keep, ","))
		b.WriteString("](")
		q.subs[0].write(b)
		b.WriteByte(')')
	}
}

// quotePattern renders a regex formula as a /…/ literal: backslashes and
// slashes are escaped with a backslash; everything else is verbatim.
func quotePattern(p string) string {
	var b strings.Builder
	b.Grow(len(p) + 2)
	b.WriteByte('/')
	for i := 0; i < len(p); i++ {
		if p[i] == '\\' || p[i] == '/' {
			b.WriteByte('\\')
		}
		b.WriteByte(p[i])
	}
	b.WriteByte('/')
	return b.String()
}

// Vars returns the capture variables bound anywhere in the query, in
// first-binding order, without compiling any automaton. It errors when a
// leaf pattern does not parse or a projection names an unbound variable.
func (q *Query) Vars() ([]string, error) {
	p, err := newPlan(q)
	if err != nil {
		return nil, err
	}
	return append([]string(nil), p.vars...), nil
}

// Explain describes a query's logical plan before and after the optimizer
// rewrites, each rendered as an indented tree (one node per line). The
// CLI's -stats prints it.
type Explain struct {
	Logical   string
	Optimized string
}

// Explain returns the pre- and post-optimization plans for the query
// without building any automaton. The same rewrites run at Compile time
// (unless WithoutOptimization is given), so the optimized tree is exactly
// the plan Compile lowers.
func (q *Query) Explain() (Explain, error) {
	p, err := newPlan(q)
	if err != nil {
		return Explain{}, err
	}
	return Explain{Logical: p.render(), Optimized: optimize(p).render()}, nil
}

// Compile validates the query, runs the logical optimizer over its plan
// (disable with WithoutOptimization), lowers the optimized plan through the
// automaton-level algebra and finishes the ordinary trim → sequentialize →
// determinize pipeline. The result is a plain *Spanner: composed queries
// support every evaluation entry point — enumeration, counting, streaming
// readers, the engine batch pool — with the same constant-delay guarantees
// as a directly compiled pattern.
//
// The spanner's Pattern() is the query's canonical syntax (see String), so
// it re-parses via ParseQuery; Explain renders the plan trees.
func (q *Query) Compile(opts ...Option) (*Spanner, error) {
	start := time.Now()
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	p, err := newPlan(q)
	if err != nil {
		return nil, err
	}
	if !cfg.noOptimize {
		p = optimize(p)
	}
	r, err := newLowerer().lower(p)
	if err != nil {
		return nil, err
	}
	e, sequentialized := r.e, r.sequentialized
	if !p.lowersSequential() {
		var last bool
		e, last = sequentialEVA(e)
		sequentialized = sequentialized || last
	}
	s, err := compileEVA(q.String(), e, sequentialized, start, opts)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// MustCompileQuery parses src with ParseQuery and compiles it, panicking on
// error; for tests and fixed queries.
func MustCompileQuery(src string, opts ...Option) *Spanner {
	s, err := MustParseQuery(src).Compile(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseQuery parses the canonical query syntax:
//
//	expr  := '/' pattern '/'                      regex-formula literal
//	       | 'union' '(' expr {',' expr} ')'      n-ary union
//	       | 'join'  '(' expr {',' expr} ')'      n-ary natural join
//	       | 'project' '[' [name {',' name}] ']' '(' expr ')'
//
// Inside a /…/ literal only \/ and \\ are literal-level escapes (a slash
// and a backslash); every other backslash sequence passes through to the
// formula unchanged, so /!x{\d+}/ is the digit formula !x{\d+} and /a\/b/
// is the formula a/b. (The canonical emission always doubles backslashes —
// /\\d+/ parses to the same formula.) Whitespace between tokens is
// ignored. String() of any Query — and Pattern() of any compiled query —
// is in this syntax.
func ParseQuery(src string) (*Query, error) {
	p := &queryParser{src: src}
	q, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, p.errorf("unexpected %q after expression", p.src[p.pos])
	}
	return q, nil
}

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// maxQueryNesting bounds how deeply a query expression may nest. The
// parser, the planner, the optimizer passes and the lowerer all recurse
// over the tree, so an unbounded union(union(union(… from an untrusted
// source would overflow the stack — an unrecoverable crash for a server —
// long before any automaton is built. 500 levels is far beyond any real
// query while keeping every downstream recursion stack-safe.
const maxQueryNesting = 500

type queryParser struct {
	src   string
	pos   int
	depth int
}

func (p *queryParser) errorf(format string, args ...any) error {
	return fmt.Errorf("query: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *queryParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// expect consumes c or fails.
func (p *queryParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errorf("expected %q", c)
	}
	p.pos++
	return nil
}

func (p *queryParser) parseExpr() (*Query, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxQueryNesting {
		return nil, p.errorf("query nests deeper than %d levels", maxQueryNesting)
	}
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errorf("unexpected end of query")
	}
	if p.src[p.pos] == '/' {
		return p.parseLiteral()
	}
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= 'a' && p.src[p.pos] <= 'z' {
		p.pos++
	}
	switch word := p.src[start:p.pos]; word {
	case "union", "join":
		subs, err := p.parseOperands()
		if err != nil {
			return nil, err
		}
		op := opUnion
		if word == "join" {
			op = opJoin
		}
		return &Query{op: op, subs: subs}, nil
	case "project":
		return p.parseProject()
	default:
		p.pos = start
		return nil, p.errorf("expected a /pattern/ literal, union(…), join(…) or project[…](…)")
	}
}

// parseLiteral consumes a /…/ pattern literal; the opening slash is next.
func (p *queryParser) parseLiteral() (*Query, error) {
	p.pos++ // consume '/'
	var b strings.Builder
	for {
		if p.pos >= len(p.src) {
			return nil, p.errorf("missing / closing pattern literal")
		}
		switch c := p.src[p.pos]; c {
		case '/':
			p.pos++
			return Pattern(b.String()), nil
		case '\\':
			if p.pos+1 >= len(p.src) {
				return nil, p.errorf("trailing backslash in pattern literal")
			}
			// Only \/ and \\ are literal-level escapes; any other sequence
			// (\d, \w, …) belongs to the formula and keeps its backslash.
			if next := p.src[p.pos+1]; next != '/' && next != '\\' {
				b.WriteByte('\\')
				b.WriteByte(next)
			} else {
				b.WriteByte(next)
			}
			p.pos += 2
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
}

func (p *queryParser) parseOperands() ([]*Query, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var subs []*Query
	for {
		q, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		subs = append(subs, q)
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return subs, nil
	}
}

// parseProject consumes the [names](expr) tail of a project term.
func (p *queryParser) parseProject() (*Query, error) {
	if err := p.expect('['); err != nil {
		return nil, err
	}
	var names []string
	p.skipSpace()
	for p.pos < len(p.src) && p.src[p.pos] != ']' {
		start := p.pos
		for p.pos < len(p.src) && rgx.IsIdentByte(p.src[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return nil, p.errorf("expected a variable name")
		}
		names = append(names, p.src[start:p.pos])
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			p.skipSpace()
		}
	}
	if err := p.expect(']'); err != nil {
		return nil, err
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	sub, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return sub.Project(names...), nil
}
