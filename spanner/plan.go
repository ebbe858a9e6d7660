// Logical query plans: the annotated, rewritable form of a Query that
// Compile optimizes and lowers. The optimizer runs entirely before any
// automaton construction:
//
//   - flatten: nested unions collapse into one n-ary union (lowered through
//     eva.UnionAll — a single fresh initial state instead of a chain of
//     binary merges) and nested joins into one n-ary join (the natural join
//     is associative).
//   - projection pushdown: π distributes through union and, keeping the
//     join variables, past join sides; a side that binds none of the
//     projected variables degrades to a boolean document filter
//     (project[]).
//   - dedup: structurally identical union operands are removed (set
//     semantics make ⟦A⟧ ∪ ⟦A⟧ = ⟦A⟧); lowering additionally memoizes every
//     distinct subexpression, so each is parsed and compiled once however
//     often it appears. Join operands are NOT deduplicated: ⟦A⟧ ⋈ ⟦A⟧
//     joins distinct compatible mappings of A and can exceed ⟦A⟧.
//   - join ordering: join operands are reordered smallest-estimated-first,
//     so the synchronized products grow from the smallest factors.
//
// Lowering then maps the optimized plan onto internal/eva constructions and
// hands the resulting automaton to the ordinary compilation pipeline.
package spanner

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"spanners/internal/eva"
	"spanners/internal/rgx"
)

// estCap saturates size estimates so join products cannot overflow.
const estCap = 1 << 30

// plan is one node of an annotated logical plan. Plans are built fresh per
// Compile/Explain from the immutable Query, so rewrites may share and
// recombine nodes freely (they never mutate existing ones).
type plan struct {
	op      queryOp
	pattern string   // opPattern
	node    rgx.Node // opPattern: parsed formula
	subs    []*plan
	keep    []string // opProject
	// vars are the variables bound in this subtree, first-binding order;
	// est is the estimated size (states + transitions) of the subtree's
	// eVA, used to order join operands before anything is built.
	vars []string
	est  int
	// ckey caches key(): plan nodes are immutable once built and a Compile
	// runs single-goroutine, so each subtree renders its canonical form at
	// most once however often dedup and lowering ask for it.
	ckey string
}

// planner builds plans from queries, parsing each distinct leaf pattern
// exactly once.
type planner struct {
	parsed map[string]rgx.Node
}

// newPlan validates q and returns its annotated plan: leaf patterns parse,
// and every projected variable is bound in the subexpression below it.
func newPlan(q *Query) (*plan, error) {
	pl := &planner{parsed: make(map[string]rgx.Node)}
	return pl.build(q)
}

func (pl *planner) build(q *Query) (*plan, error) {
	switch q.op {
	case opPattern:
		n, ok := pl.parsed[q.pattern]
		if !ok {
			var err error
			if n, err = rgx.Parse(q.pattern); err != nil {
				return nil, err
			}
			pl.parsed[q.pattern] = n
		}
		return &plan{op: opPattern, pattern: q.pattern, node: n, vars: rgx.Vars(n), est: rgx.Size(n) + 1}, nil
	case opProject:
		sub, err := pl.build(q.subs[0])
		if err != nil {
			return nil, err
		}
		for _, name := range q.keep {
			if !slices.Contains(sub.vars, name) {
				return nil, fmt.Errorf("query: project[%s]: variable %q not bound in %s",
					strings.Join(q.keep, ","), name, q.subs[0])
			}
		}
		return mkProject(sub, q.keep), nil
	default:
		subs := make([]*plan, len(q.subs))
		for i, s := range q.subs {
			var err error
			if subs[i], err = pl.build(s); err != nil {
				return nil, err
			}
		}
		if q.op == opUnion {
			return mkUnion(subs), nil
		}
		return mkJoin(subs), nil
	}
}

// mkUnion/mkJoin/mkProject construct combinator nodes, recomputing the vars
// and size annotations from the children.
func mkUnion(subs []*plan) *plan {
	p := &plan{op: opUnion, subs: subs, vars: unionVars(subs), est: 1}
	for _, s := range subs {
		p.est = min(p.est+s.est, estCap)
	}
	return p
}

func mkJoin(subs []*plan) *plan {
	p := &plan{op: opJoin, subs: subs, vars: unionVars(subs), est: 1}
	for _, s := range subs {
		// Saturating multiply: the guard keeps the product from overflowing
		// int before the cap applies (ests are ≥ 1 and ≤ estCap).
		if s.est > 0 && p.est > estCap/s.est {
			p.est = estCap
		} else {
			p.est = min(p.est*s.est, estCap)
		}
	}
	return p
}

func mkProject(sub *plan, keep []string) *plan {
	return &plan{op: opProject, subs: []*plan{sub}, keep: keep, vars: keep, est: min(sub.est+1, estCap)}
}

func unionVars(subs []*plan) []string {
	var all []string
	for _, s := range subs {
		all = append(all, s.vars...)
	}
	return dedupNames(all)
}

// key is the canonical one-line form of the plan, the structural identity
// used for deduplication and lowering memoization. It is rendered by the
// Query renderer (via asQuery), so the canonical syntax has exactly one
// definition — the one ParseQuery round-trips — and cached per node, so a
// k-node plan renders O(k) subtrees per Compile rather than O(k²).
func (p *plan) key() string {
	if p.ckey == "" {
		p.ckey = p.asQuery().String()
	}
	return p.ckey
}

// asQuery rebuilds the plan's Query shape, for rendering.
func (p *plan) asQuery() *Query {
	switch p.op {
	case opPattern:
		return &Query{op: opPattern, pattern: p.pattern}
	case opProject:
		return &Query{op: opProject, subs: []*Query{p.subs[0].asQuery()}, keep: p.keep}
	default:
		subs := make([]*Query, len(p.subs))
		for i, s := range p.subs {
			subs[i] = s.asQuery()
		}
		return &Query{op: p.op, subs: subs}
	}
}

// render pretty-prints the plan as an indented tree, one node per line;
// this is the Explain format.
func (p *plan) render() string {
	var b strings.Builder
	p.writeTree(&b, 0)
	return b.String()
}

func (p *plan) writeTree(b *strings.Builder, depth int) {
	if depth > 0 {
		b.WriteByte('\n')
	}
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	switch p.op {
	case opPattern:
		b.WriteString(quotePattern(p.pattern))
		return
	case opUnion:
		b.WriteString("union")
	case opJoin:
		b.WriteString("join")
	case opProject:
		b.WriteString("project[")
		b.WriteString(strings.Join(p.keep, ","))
		b.WriteByte(']')
	}
	fmt.Fprintf(b, "  (vars %s, est %d)", strings.Join(p.vars, ","), p.est)
	for _, s := range p.subs {
		s.writeTree(b, depth+1)
	}
}

// optimize runs the rewrite passes in order. Every pass is semantics
// preserving on the match sets (the differential suite and the
// FuzzQueryPlanEquivalence target pin this against the unoptimized plan);
// only the variable order of dropped identity projections could differ, so
// those are removed only when the order matches too.
func optimize(p *plan) *plan {
	p = flatten(p)
	p = pushdown(p)
	p = flatten(p) // pushdown exposes unions directly under unions
	p = dedupUnions(p)
	p = orderJoins(p)
	return collapse(p)
}

// flatten splices union operands that are themselves unions into their
// parent (and likewise for joins), bottom-up.
func flatten(p *plan) *plan {
	switch p.op {
	case opUnion, opJoin:
		var subs []*plan
		for _, s := range p.subs {
			s = flatten(s)
			if s.op == p.op {
				subs = append(subs, s.subs...)
			} else {
				subs = append(subs, s)
			}
		}
		if p.op == opUnion {
			return mkUnion(subs)
		}
		return mkJoin(subs)
	case opProject:
		return mkProject(flatten(p.subs[0]), p.keep)
	default:
		return p
	}
}

// pushdown moves every projection as deep as it can go.
func pushdown(p *plan) *plan {
	switch p.op {
	case opProject:
		return push(pushdown(p.subs[0]), p.keep)
	case opUnion, opJoin:
		subs := make([]*plan, len(p.subs))
		for i, s := range p.subs {
			subs[i] = pushdown(s)
		}
		if p.op == opUnion {
			return mkUnion(subs)
		}
		return mkJoin(subs)
	default:
		return p
	}
}

// push rewrites π_keep(p), pushing the restriction into p's operands.
// Invariant: keep ⊆ p.vars. The rewrites are the standard relational ones,
// adapted to partial mappings:
//
//	π_V(A ∪ B)   = π_{V∩vars(A)}(A) ∪ π_{V∩vars(B)}(B)
//	π_V(A ⋈ B)   = π_V(π_{(V∪S)∩vars(A)}(A) ⋈ π_{(V∪S)∩vars(B)}(B))
//	               where S = vars(A) ∩ vars(B) (compatibility is decided on
//	               the shared variables, so they must survive to the join)
//	π_V(π_W(A))  = π_V(A)                        (V ⊆ W by validation)
//	π_vars(A)(A) = A                             (identity projection)
func push(p *plan, keep []string) *plan {
	switch p.op {
	case opProject:
		return push(p.subs[0], keep)
	case opUnion:
		subs := make([]*plan, len(p.subs))
		for i, s := range p.subs {
			subs[i] = push(s, intersectNames(keep, s.vars))
		}
		u := mkUnion(subs)
		if slices.Equal(u.vars, keep) {
			return u
		}
		// The operand projections already restrict the variable set; the
		// residual outer projection only restores the requested variable
		// order (an identity projection on the set, compiled as a plain
		// per-transition rewrite).
		return mkProject(u, keep)
	case opJoin:
		subs := make([]*plan, len(p.subs))
		for i, s := range p.subs {
			// The variables this side shares with any other operand decide
			// join compatibility and must be kept below the join.
			var others []string
			for j, o := range p.subs {
				if j != i {
					others = append(others, o.vars...)
				}
			}
			shared := intersectNames(s.vars, others)
			subs[i] = push(s, intersectNames(s.vars, append(append([]string(nil), keep...), shared...)))
		}
		j := mkJoin(subs)
		if slices.Equal(j.vars, keep) {
			return j
		}
		return mkProject(j, keep)
	default:
		if slices.Equal(keep, p.vars) {
			return p
		}
		return mkProject(p, keep)
	}
}

// intersectNames returns the elements of a that occur in b, in a's order,
// deduplicated.
func intersectNames(a, b []string) []string {
	out := make([]string, 0, len(a))
	for _, n := range dedupNames(a) {
		if slices.Contains(b, n) {
			out = append(out, n)
		}
	}
	return out
}

// dedupUnions removes structurally identical union operands (set
// semantics), bottom-up.
func dedupUnions(p *plan) *plan {
	switch p.op {
	case opUnion:
		seen := make(map[string]bool, len(p.subs))
		var subs []*plan
		for _, s := range p.subs {
			s = dedupUnions(s)
			if k := s.key(); !seen[k] {
				seen[k] = true
				subs = append(subs, s)
			}
		}
		return mkUnion(subs)
	case opJoin:
		subs := make([]*plan, len(p.subs))
		for i, s := range p.subs {
			subs[i] = dedupUnions(s)
		}
		return mkJoin(subs)
	case opProject:
		return mkProject(dedupUnions(p.subs[0]), p.keep)
	default:
		return p
	}
}

// orderJoins stably sorts every join's operands by estimated size,
// smallest first, so the synchronized product grows from the smallest
// factors.
func orderJoins(p *plan) *plan {
	switch p.op {
	case opUnion, opJoin:
		subs := make([]*plan, len(p.subs))
		for i, s := range p.subs {
			subs[i] = orderJoins(s)
		}
		if p.op == opUnion {
			return mkUnion(subs)
		}
		sort.SliceStable(subs, func(i, j int) bool { return subs[i].est < subs[j].est })
		return mkJoin(subs)
	case opProject:
		return mkProject(orderJoins(p.subs[0]), p.keep)
	default:
		return p
	}
}

// collapse replaces single-operand unions and joins (e.g. after dedup) by
// their operand, bottom-up.
func collapse(p *plan) *plan {
	switch p.op {
	case opUnion, opJoin:
		subs := make([]*plan, len(p.subs))
		for i, s := range p.subs {
			subs[i] = collapse(s)
		}
		if len(subs) == 1 {
			return subs[0]
		}
		if p.op == opUnion {
			return mkUnion(subs)
		}
		return mkJoin(subs)
	case opProject:
		return mkProject(collapse(p.subs[0]), p.keep)
	default:
		return p
	}
}

// lowerer maps plans onto internal/eva constructions, memoizing each
// distinct subexpression by its structural key so it is compiled exactly
// once however often it appears in the plan (and the constructions never
// mutate their inputs, so the memoized automata are safe to share).
type lowerer struct {
	memo map[string]lowered
}

// lowered is one memoized subexpression: its eVA, and whether building it
// took a Proposition 4.1 status product anywhere below.
type lowered struct {
	e              *eva.EVA
	sequentialized bool
}

func newLowerer() *lowerer { return &lowerer{memo: make(map[string]lowered)} }

// lower builds the subtree's eVA. The result is not necessarily
// sequential — joins defer shared-variable conflicts to the downstream
// sequentialization product — so consumers that need sequentiality
// (Project, and the final compilation pipeline) sequentialize themselves,
// unless the plan lowersSequential. Its sequentialized flag reports
// whether a status product was taken inside the subtree: by a pattern
// leaf or for a projection's input.
func (l *lowerer) lower(p *plan) (lowered, error) {
	key := p.key()
	if r, ok := l.memo[key]; ok {
		return r, nil
	}
	r, err := l.lowerNew(p)
	if err != nil {
		return lowered{}, err
	}
	l.memo[key] = r
	return r, nil
}

// lowersSequential reports whether lower returns an eVA that is already
// trimmed and sequential, so that sequentialEVA would return it unchanged:
// a pattern leaf lowers through sequentialEVA itself.
func (p *plan) lowersSequential() bool { return p.op == opPattern }

func (l *lowerer) lowerNew(p *plan) (lowered, error) {
	switch p.op {
	case opPattern:
		v, err := rgx.Compile(p.node)
		if err != nil {
			return lowered{}, err
		}
		seq, sequentialized := sequentialEVA(v.ToExtended())
		return lowered{seq, sequentialized}, nil
	case opUnion:
		ops := make([]*eva.EVA, len(p.subs))
		var r lowered
		for i, s := range p.subs {
			sub, err := l.lower(s)
			if err != nil {
				return lowered{}, err
			}
			ops[i] = sub.e
			r.sequentialized = r.sequentialized || sub.sequentialized
		}
		var err error
		r.e, err = eva.UnionAll(ops...)
		return r, err
	case opJoin:
		// Fold in plan order: the optimizer has already put the smallest
		// estimated operands first, so the intermediate products stay small.
		r, err := l.lower(p.subs[0])
		if err != nil {
			return lowered{}, err
		}
		for _, s := range p.subs[1:] {
			op, err := l.lower(s)
			if err != nil {
				return lowered{}, err
			}
			if r.e, err = eva.Join(r.e, op.e); err != nil {
				return lowered{}, err
			}
			r.sequentialized = r.sequentialized || op.sequentialized
		}
		return r, nil
	default: // opProject
		// Project's soundness argument needs a sequential input: on a
		// non-sequential automaton (a join below), restricting markers could
		// turn an invalid run valid and invent mappings. The sequentialized
		// form is memoized under its own key so sibling projections of the
		// same subexpression pay the status product once.
		seqKey := p.subs[0].key() + "\x00seq"
		sub, ok := l.memo[seqKey]
		if !ok {
			var err error
			if sub, err = l.lower(p.subs[0]); err != nil {
				return lowered{}, err
			}
			if !p.subs[0].lowersSequential() && !sub.e.IsSequential() {
				sub.e, sub.sequentialized = sub.e.Sequentialize().Trim(), true
			}
			l.memo[seqKey] = sub
		}
		e, err := eva.Project(sub.e, p.keep...)
		return lowered{e, sub.sequentialized}, err
	}
}
