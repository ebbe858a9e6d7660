// Package taintflow tracks attacker-controlled values from the daemon's
// request surface to the places where trusting them hurts: a forward
// taint dataflow over the shared CFGs, propagated across functions and
// packages by summaries, aimed at exactly the hazards this repo has
// already shipped and re-fixed by hand (the PR-7 timeout_ms Duration
// overflow, attacker-sized allocations, unbounded request bodies).
//
// Sources. Values derived from *net/http.Request — the body, URL query
// parameters, header values, path values — and the out-parameters of
// JSON decoding ((*json.Decoder).Decode, json.Unmarshal, and anything
// reached through them, like spannerd's decodeStrict).
//
// Sanitizers. A bounded-above comparison launders the compared value on
// the edge where the bound holds: the true edge of v < limit (and the
// false edge of v > limit), recursing into && on true edges and || on
// false edges, provided the bound itself is untainted — the exact shape
// of the PR-7 clamp and of every corpus.Limits check, which is why
// corpus.Register needs no special-casing: its own validation derives a
// clean summary. Equality against an untainted value also pins a value
// clean. http.MaxBytesReader bounds a stream — that satisfies the
// stream sinks, but values decoded out of the bounded stream remain
// tainted (a one-byte body can carry a 2^62 timeout). The depth-bounded
// query parsers (spanner.ParseQuery, rgx.Parse) accept tainted input by
// design and return clean results.
//
// Sinks. make with a tainted size, time.Duration multiplication with a
// tainted operand (the overflow shape), JSON-decoding, io.ReadAll or
// bytes.Buffer.ReadFrom of a tainted reader that was never size-bounded,
// and compiling a tainted pattern with std regexp (the repo's own parsers
// are depth-bounded; std's is not ours to bound).
//
// Interprocedurally, each function exports a TaintFact: which
// parameters reach sinks unlaundered, whether (and how) the return
// value is tainted, which paths under the returned root the function
// itself validated, and which pointee arguments it fills with attacker
// data. Function literals are not analyzed (their captured environment
// is out of scope); dynamic calls propagate argument taint to the
// result but cannot reach summaries.
package taintflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"spanners/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "taintflow",
	Doc: "track attacker-controlled request values into allocation/overflow sinks\n\n" +
		"Forward taint dataflow from request bodies, query parameters and\n" +
		"headers into attacker-sized make, time.Duration arithmetic, and\n" +
		"unbounded decoding, with bounded-above comparisons as sanitizers\n" +
		"and cross-package propagation via function summaries.",
	Requires:  []*analysis.Analyzer{analysis.CFGAnalyzer},
	Run:       run,
	FactTypes: []analysis.Fact{(*TaintFact)(nil)},
}

// A TaintFact summarizes one function's taint behavior for its callers.
type TaintFact struct {
	// ParamSinks[i] is set when a tainted argument in position i reaches
	// a sink inside the function (or its callees) without being bounded.
	ParamSinks map[int]string `json:",omitempty"`
	// RetTainted marks the first result attacker-controlled regardless
	// of arguments (the function is itself a source); RetWhy names the
	// provenance.
	RetTainted bool   `json:",omitempty"`
	RetWhy     string `json:",omitempty"`
	// RetCleanPaths lists paths under the returned root the function
	// itself validated (".Docs#len" — decodeRequest's document-count
	// clamp), so callers inherit the proof, not just the taint.
	RetCleanPaths []string `json:",omitempty"`
	// RetParams lists parameters whose taint flows into the first
	// result.
	RetParams []int `json:",omitempty"`
	// TaintsPointee lists pointer-ish parameters the function fills with
	// attacker data (JSON decode out-params).
	TaintsPointee []int `json:",omitempty"`
}

func (*TaintFact) AFact() {}

func (f *TaintFact) empty() bool {
	return f == nil || (len(f.ParamSinks) == 0 && !f.RetTainted &&
		len(f.RetCleanPaths) == 0 && len(f.RetParams) == 0 && len(f.TaintsPointee) == 0)
}

func equalFacts(a, b *TaintFact) bool {
	if a.RetTainted != b.RetTainted || a.RetWhy != b.RetWhy {
		return false
	}
	if len(a.ParamSinks) != len(b.ParamSinks) {
		return false
	}
	for k, v := range a.ParamSinks {
		if b.ParamSinks[k] != v {
			return false
		}
	}
	return equalInts(a.RetParams, b.RetParams) && equalInts(a.TaintsPointee, b.TaintsPointee) &&
		equalStrs(a.RetCleanPaths, b.RetCleanPaths)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sanitizers accept attacker-controlled input by design: their argument
// use is not a sink and their results are clean. Matched by full name,
// plus the bare name ParseQuery (the depth-bounded query-language
// convention, which also lets fixtures model a parser).
var sanitizerFullNames = map[string]bool{
	"spanners/internal/rgx.Parse": true,
}

const sanitizerBareName = "ParseQuery"

// taint lattice: a bitmask. Bit 0 is "attacker-controlled"; bit i+1 is
// "carries the taint of parameter i", which is what turns the analysis
// into a summary generator. Bit 63 marks a stream whose total size has
// been bounded (http.MaxBytesReader): stream sinks are satisfied, but
// values decoded out of it are still attacker-controlled — a one-byte
// body can carry a 2^62 timeout.
const (
	sourceBit  uint64 = 1
	boundedBit uint64 = 1 << 63
)

func paramBit(i int) uint64 {
	if i > 61 {
		return 0
	}
	return 1 << (uint(i) + 1)
}

type tval struct {
	mask uint64
	why  string
}

func (t tval) tainted() bool { return t.mask != 0 }
func (t tval) or(u tval) tval {
	why := t.why
	if why == "" {
		why = u.why
	}
	return tval{mask: t.mask | u.mask, why: why}
}

// tkey addresses one tracked value: a variable plus a field path under
// it. The pseudo-segment "#len" tracks the proven-bounded length of a
// slice separately from its contents.
type tkey struct {
	root types.Object
	path string
}

type state map[tkey]tval

func cloneState(s state) state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func equalStates(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// effective resolves a key through its parent paths: an explicit entry
// wins (including an explicit clean), otherwise the taint of the
// nearest tracked ancestor applies ("req is tainted, so req.Docs is").
func effective(s state, k tkey) tval {
	for {
		if v, ok := s[k]; ok {
			return v
		}
		switch {
		case strings.HasSuffix(k.path, "#len"):
			k.path = strings.TrimSuffix(k.path, "#len")
		case k.path != "":
			if i := strings.LastIndexByte(k.path, '.'); i >= 0 {
				k.path = k.path[:i]
			} else {
				k.path = ""
			}
		default:
			return tval{}
		}
	}
}

// joinStates merges src into dst. A key present on one side only is
// compared against its effective value on the other, so an explicit
// clean on one branch cannot mask inherited taint from the other.
func joinStates(dst, src state) state {
	for k, v := range src {
		dst[k] = v.or(effective(dst, k))
	}
	for k, v := range dst {
		if _, ok := src[k]; !ok {
			dst[k] = v.or(effective(src, k))
		}
	}
	return dst
}

// setExplicit records a value for k, dropping every stale entry
// beneath it (overwriting a struct kills what was known about its
// fields).
func setExplicit(s state, k tkey, v tval) {
	for other := range s {
		if other.root == k.root && other != k && strings.HasPrefix(other.path, k.path) && len(other.path) > len(k.path) {
			delete(s, other)
		}
	}
	s[k] = v
}

// checker analyzes one function against the current summary table.
type checker struct {
	pass      *analysis.Pass
	cfgs      *analysis.CFGs
	summaries map[*types.Func]*TaintFact
	fn        *ast.FuncDecl
	obj       *types.Func
	params    []*types.Var
	report    bool // emit diagnostics (final pass) vs collect the summary
	summary   *TaintFact
}

func run(pass *analysis.Pass) (any, error) {
	cfgs := pass.ResultOf[analysis.CFGAnalyzer].(*analysis.CFGs)

	type fn struct {
		decl *ast.FuncDecl
		obj  *types.Func
	}
	var fns []fn
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil {
				fns = append(fns, fn{fd, obj})
			}
		}
	}

	// Package-local fixpoint over the summary table: mutually recursive
	// helpers converge because the summary lattice only grows.
	summaries := make(map[*types.Func]*TaintFact)
	for _, f := range fns {
		summaries[f.obj] = &TaintFact{}
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, f := range fns {
			c := &checker{pass: pass, cfgs: cfgs, summaries: summaries, fn: f.decl, obj: f.obj}
			s := c.analyze()
			if !equalFacts(summaries[f.obj], s) {
				summaries[f.obj] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for _, f := range fns {
		if s := summaries[f.obj]; !s.empty() {
			pass.ExportObjectFact(f.obj, s)
		}
	}

	// Reporting pass, now that every local summary is stable.
	for _, f := range fns {
		c := &checker{pass: pass, cfgs: cfgs, summaries: summaries, fn: f.decl, obj: f.obj, report: true}
		c.analyze()
	}
	return nil, nil
}

// analyze runs the flow problem for one function and either collects
// its summary (returned) or reports its source-tainted sink hits.
func (c *checker) analyze() *TaintFact {
	c.summary = &TaintFact{ParamSinks: make(map[int]string)}
	sig := c.obj.Type().(*types.Signature)
	c.params = nil
	for i := 0; i < sig.Params().Len(); i++ {
		c.params = append(c.params, sig.Params().At(i))
	}

	cfg := c.cfgs.FuncCFG(c.fn)
	if cfg == nil {
		return c.finish()
	}
	entry := make(state)
	for i, p := range c.params {
		if p.Name() == "" || p.Name() == "_" {
			continue
		}
		entry[tkey{p, ""}] = tval{mask: paramBit(i), why: "parameter " + p.Name()}
	}
	flow := &analysis.Flow[state]{
		CFG:   cfg,
		Entry: entry,
		Clone: cloneState,
		Join:  joinStates,
		Equal: equalStates,
		Transfer: func(b *analysis.Block, st state) state {
			for _, n := range b.Nodes {
				c.applyNode(st, n, false)
			}
			return st
		},
		Edge: func(from, to *analysis.Block, st state) state {
			if cond, taken, ok := analysis.CondEdge(from, to); ok {
				c.refine(st, cond, taken)
			}
			return st
		},
	}
	in, reached := flow.Solve()

	// Replay every reachable block once with sink checking (and, in the
	// summary pass, return recording) enabled.
	for i, b := range cfg.Blocks {
		if !reached[i] {
			continue
		}
		st := cloneState(in[i])
		for _, n := range b.Nodes {
			c.applyNode(st, n, true)
		}
	}
	return c.finish()
}

func (c *checker) finish() *TaintFact {
	s := c.summary
	sort.Ints(s.RetParams)
	sort.Ints(s.TaintsPointee)
	sort.Strings(s.RetCleanPaths)
	if len(s.ParamSinks) == 0 {
		s.ParamSinks = nil
	}
	return s
}

// applyNode applies one block node to the state. With check set (the
// replay pass) it also tests sinks and records return summaries; the
// fixpoint pass applies state effects only.
func (c *checker) applyNode(st state, n ast.Node, check bool) {
	if check {
		c.checkNode(st, n)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.applyAssign(st, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v := tval{}
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
						v = c.taintOf(st, rhs)
					}
					c.assignTo(st, name, rhs, v, nil)
				}
			}
		}
	case *ast.RangeStmt:
		elem := c.taintOf(st, n.X)
		if n.Value != nil {
			c.assignTo(st, n.Value, nil, elem, nil)
		}
		if n.Key != nil {
			kv := tval{}
			if t, ok := c.pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := t.Type.Underlying().(*types.Map); isMap {
					kv = elem
				}
			}
			c.assignTo(st, n.Key, nil, kv, nil)
		}
	case *ast.ReturnStmt:
		if !c.report {
			c.recordReturn(st, n)
		}
	}
	// Pointee side effects of calls fire wherever the call appears.
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			c.applyCallEffects(st, call)
		}
		return true
	})
}

// applyAssign transfers taint across an assignment.
func (c *checker) applyAssign(st state, as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			var retInfo *TaintFact
			if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
				retInfo = c.callFact(call)
			}
			c.assignTo(st, as.Lhs[i], as.Rhs[i], c.taintOf(st, as.Rhs[i]), retInfo)
		}
		return
	}
	// Tuple assignment from one call: the summary models the first
	// result; the rest (errors, flags) are clean.
	if len(as.Rhs) == 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		var first tval
		var retInfo *TaintFact
		if ok {
			first = c.taintOf(st, call)
			retInfo = c.callFact(call)
		}
		for i := range as.Lhs {
			if i == 0 {
				c.assignTo(st, as.Lhs[i], nil, first, retInfo)
			} else {
				c.assignTo(st, as.Lhs[i], nil, tval{}, nil)
			}
		}
	}
}

// assignTo stores a value under the key of lhs. retInfo carries the
// callee summary when the value came straight from a call, so validated
// subpaths (RetCleanPaths) transfer to the caller's view of the result.
// When rhs is itself a tracked key (an alias like `docs := req.Docs`),
// everything known about paths beneath it — including explicit cleans
// such as a validated length — is rebased onto lhs, so aliasing does not
// forget a bound the code already checked.
func (c *checker) assignTo(st state, lhs, rhs ast.Expr, v tval, retInfo *TaintFact) {
	k, ok := c.keyOf(lhs)
	if !ok {
		return
	}
	var rebased []struct {
		path string
		v    tval
	}
	if rhs != nil {
		if rk, ok := c.keyOf(ast.Unparen(rhs)); ok {
			for other, ov := range st {
				if other.root == rk.root && len(other.path) > len(rk.path) && strings.HasPrefix(other.path, rk.path) {
					rebased = append(rebased, struct {
						path string
						v    tval
					}{other.path[len(rk.path):], ov})
				}
			}
		}
	}
	setExplicit(st, k, v)
	for _, r := range rebased {
		st[tkey{k.root, k.path + r.path}] = r.v
	}
	if retInfo != nil && v.tainted() {
		for _, p := range retInfo.RetCleanPaths {
			st[tkey{k.root, k.path + p}] = tval{}
		}
	}
}

// recordReturn folds one return statement into the summary.
func (c *checker) recordReturn(st state, ret *ast.ReturnStmt) {
	if len(ret.Results) == 0 {
		return
	}
	res := ast.Unparen(ret.Results[0])
	t := c.taintOf(st, res)
	if t.mask&sourceBit != 0 {
		c.summary.RetTainted = true
		if c.summary.RetWhy == "" {
			c.summary.RetWhy = t.why
		}
		// Paths under the returned root that this function proved
		// bounded travel with the taint.
		root := res
		if ue, ok := res.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			root = ast.Unparen(ue.X)
		}
		if k, ok := c.keyOf(root); ok && k.path == "" {
			for other, v := range st {
				if other.root == k.root && other.path != "" && !v.tainted() {
					c.addCleanPath(other.path)
				}
			}
		}
	}
	for i := range c.params {
		if t.mask&paramBit(i) != 0 && !containsInt(c.summary.RetParams, i) {
			c.summary.RetParams = append(c.summary.RetParams, i)
		}
	}
}

func (c *checker) addCleanPath(p string) {
	for _, q := range c.summary.RetCleanPaths {
		if q == p {
			return
		}
	}
	c.summary.RetCleanPaths = append(c.summary.RetCleanPaths, p)
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// hit handles a tainted value reaching a sink: attacker taint is
// reported (or recorded for the report pass), parameter taint becomes a
// ParamSinks summary entry so callers inherit the hazard.
func (c *checker) hit(pos token.Pos, t tval, sink string) {
	if !t.tainted() {
		return
	}
	if t.mask&sourceBit != 0 {
		if c.report {
			c.pass.Reportf(pos, "%s (%s)", sink, t.why)
		}
		return
	}
	for i := range c.params {
		if t.mask&paramBit(i) != 0 {
			if _, ok := c.summary.ParamSinks[i]; !ok {
				c.summary.ParamSinks[i] = sink
			}
		}
	}
}

// streamHit is hit for sinks a size-bounded stream satisfies.
func (c *checker) streamHit(pos token.Pos, t tval, sink string) {
	if t.mask&boundedBit != 0 {
		return
	}
	c.hit(pos, t, sink)
}

// checkNode walks one node for sinks, using the pre-node state.
func (c *checker) checkNode(st state, n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // not analyzed; see package doc
		case *ast.BinaryExpr:
			if x.Op == token.MUL && isDuration(c.pass, x) {
				t := c.taintOf(st, x.X).or(c.taintOf(st, x.Y))
				c.hit(x.Pos(), t, "time.Duration multiplication with an attacker-controlled operand can overflow; clamp it first")
			}
		case *ast.CallExpr:
			c.checkCall(st, x)
		}
		return true
	})
}

// checkCall tests one call's sink behavior.
func (c *checker) checkCall(st state, call *ast.CallExpr) {
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "make" {
				for _, arg := range call.Args[1:] {
					c.hit(arg.Pos(), c.taintOf(st, arg), "make sized by an attacker-controlled value")
				}
			}
			return
		}
	}
	callee := c.pass.Callee(call)
	if callee == nil || isSanitizer(callee) {
		return
	}
	switch callee.FullName() {
	case "(*encoding/json.Decoder).Decode":
		if recv := recvExpr(call); recv != nil {
			c.streamHit(call.Pos(), c.taintOf(st, recv),
				"JSON-decoding an attacker-controlled stream with no size bound; wrap it with http.MaxBytesReader")
		}
	case "io.ReadAll", "(*bytes.Buffer).ReadFrom":
		if len(call.Args) == 1 {
			c.streamHit(call.Pos(), c.taintOf(st, call.Args[0]),
				"reading an attacker-controlled stream with no size bound; wrap it with http.MaxBytesReader")
		}
	case "regexp.Compile", "regexp.MustCompile", "regexp.CompilePOSIX", "regexp.MustCompilePOSIX":
		if len(call.Args) == 1 {
			c.hit(call.Pos(), c.taintOf(st, call.Args[0]),
				"compiling an attacker-controlled pattern with std regexp; bound or validate it first")
		}
	default:
		if fact := c.callFact(call); fact != nil {
			for i, arg := range call.Args {
				if why, ok := fact.ParamSinks[argParamIndex(callee, i)]; ok {
					// A bounded stream satisfies the callee's sink too —
					// that is exactly how decodeStrict-style helpers are
					// meant to be called.
					c.streamHit(arg.Pos(), c.taintOf(st, arg),
						fmt.Sprintf("passed to %s, where it reaches a sink: %s", callee.Name(), why))
				}
			}
		}
	}
}

// applyCallEffects applies a call's state side effects: decode
// out-params (std and summarized) become attacker-controlled.
func (c *checker) applyCallEffects(st state, call *ast.CallExpr) {
	callee := c.pass.Callee(call)
	if callee == nil {
		return
	}
	taintPointee := func(arg ast.Expr, why string) {
		arg = ast.Unparen(arg)
		if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			arg = ast.Unparen(ue.X)
		}
		if k, ok := c.keyOf(arg); ok {
			setExplicit(st, k, tval{mask: sourceBit, why: why})
			// A parameter's pointee filled with attacker data is part of
			// this function's own summary.
			if id, ok := arg.(*ast.Ident); ok {
				if v, _ := c.pass.TypesInfo.ObjectOf(id).(*types.Var); v != nil {
					for i, p := range c.params {
						if p == v && !containsInt(c.summary.TaintsPointee, i) {
							c.summary.TaintsPointee = append(c.summary.TaintsPointee, i)
						}
					}
				}
			}
		}
	}
	switch callee.FullName() {
	case "(*encoding/json.Decoder).Decode":
		if len(call.Args) == 1 {
			if recv := recvExpr(call); recv != nil && c.taintOf(st, recv).tainted() {
				taintPointee(call.Args[0], "JSON-decoded request data")
			}
		}
	case "encoding/json.Unmarshal":
		if len(call.Args) == 2 && c.taintOf(st, call.Args[0]).tainted() {
			taintPointee(call.Args[1], "JSON-decoded request data")
		}
	default:
		if fact := c.callFact(call); fact != nil {
			for _, i := range fact.TaintsPointee {
				for j := range call.Args {
					if argParamIndex(callee, j) == i {
						taintPointee(call.Args[j], "JSON-decoded request data")
					}
				}
			}
		}
	}
}

// callFact resolves the summary of a call's static callee: the local
// table for same-package functions, imported facts otherwise. An
// in-module callee with no exported fact was summarized clean (empty
// summaries are not exported), so it gets the empty fact rather than
// the unknown-callee treatment — otherwise every clean module helper
// would smear its arguments' taint onto its result. A nil return means
// the callee is genuinely outside the summary horizon (std, dynamic).
func (c *checker) callFact(call *ast.CallExpr) *TaintFact {
	callee := c.pass.Callee(call)
	if callee == nil || isSanitizer(callee) {
		return nil
	}
	if s, ok := c.summaries[callee]; ok {
		return s
	}
	var fact TaintFact
	if c.pass.ImportObjectFact(callee, &fact) {
		return &fact
	}
	if pkg := callee.Pkg(); pkg != nil && sameModule(pkg.Path(), c.pass.Pkg.Path()) {
		return &TaintFact{}
	}
	return nil
}

// sameModule reports whether two package paths share a module, judged by
// their first path element — exact enough for a single-module repo, and
// it errs toward treating external code as unknown.
func sameModule(a, b string) bool {
	return firstElem(a) == firstElem(b)
}

func firstElem(p string) string {
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

// taintOf computes the taint of an expression under the state. Pure: no
// reports, no state writes.
func (c *checker) taintOf(st state, e ast.Expr) tval {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := c.pass.TypesInfo.ObjectOf(e).(*types.Var); ok {
			return effective(st, tkey{v, ""})
		}
	case *ast.SelectorExpr:
		if requestDerived(c.pass, e) {
			return tval{mask: sourceBit, why: "request-derived value"}
		}
		if k, ok := c.keyOf(e); ok {
			return effective(st, k)
		}
		return c.taintOf(st, e.X)
	case *ast.CallExpr:
		return c.callTaint(st, e)
	case *ast.BinaryExpr:
		return c.taintOf(st, e.X).or(c.taintOf(st, e.Y))
	case *ast.UnaryExpr:
		return c.taintOf(st, e.X)
	case *ast.StarExpr:
		return c.taintOf(st, e.X)
	case *ast.IndexExpr:
		return c.taintOf(st, e.X)
	case *ast.SliceExpr:
		return c.taintOf(st, e.X)
	case *ast.TypeAssertExpr:
		return c.taintOf(st, e.X)
	case *ast.CompositeLit:
		var t tval
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = t.or(c.taintOf(st, el))
		}
		return t
	}
	return tval{}
}

// callTaint computes the taint of a call's (first) result.
func (c *checker) callTaint(st state, call *ast.CallExpr) tval {
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return c.taintOf(st, call.Args[0]) // conversion passes taint through
		}
		return tval{}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len":
				if len(call.Args) == 1 {
					if k, ok := c.keyOf(ast.Unparen(call.Args[0])); ok {
						return effective(st, tkey{k.root, k.path + "#len"})
					}
					return c.taintOf(st, call.Args[0])
				}
			case "append":
				var t tval
				for _, a := range call.Args {
					t = t.or(c.taintOf(st, a))
				}
				return t
			}
			return tval{}
		}
	}
	if requestDerived(c.pass, call) {
		return tval{mask: sourceBit, why: "request-derived value"}
	}
	callee := c.pass.Callee(call)
	if callee != nil {
		if isSanitizer(callee) {
			return tval{} // depth-bounded parsers return validated structures
		}
		if callee.FullName() == "net/http.MaxBytesReader" {
			// Size-bounded, but its bytes are still attacker-chosen.
			return tval{mask: sourceBit | boundedBit, why: "size-bounded request body"}
		}
		if fact := c.callFact(call); fact != nil {
			var t tval
			if fact.RetTainted {
				t = t.or(tval{mask: sourceBit, why: fact.RetWhy})
			}
			for _, i := range fact.RetParams {
				for j := range call.Args {
					if argParamIndex(callee, j) == i {
						t = t.or(c.taintOf(st, call.Args[j]))
					}
				}
			}
			return t
		}
	}
	// Unknown callee (std, dynamic): taint propagates arguments (and
	// receiver) to result — strconv.Atoi of a tainted string is tainted.
	var t tval
	if recv := recvExpr(call); recv != nil {
		t = t.or(c.taintOf(st, recv))
	}
	for _, a := range call.Args {
		t = t.or(c.taintOf(st, a))
	}
	return t
}

// refine launders values along a branch edge: on the edge where v is
// known bounded above by an untainted limit, v's taint is cleared.
func (c *checker) refine(st state, cond ast.Expr, taken bool) {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			c.refine(st, e.X, !taken)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if taken {
				c.refine(st, e.X, true)
				c.refine(st, e.Y, true)
			}
		case token.LOR:
			if !taken {
				c.refine(st, e.X, false)
				c.refine(st, e.Y, false)
			}
		case token.LSS, token.LEQ: // X < Y
			if taken {
				c.boundAbove(st, e.X, e.Y)
			} else {
				c.boundAbove(st, e.Y, e.X)
			}
		case token.GTR, token.GEQ: // X > Y
			if taken {
				c.boundAbove(st, e.Y, e.X)
			} else {
				c.boundAbove(st, e.X, e.Y)
			}
		case token.EQL:
			if taken {
				c.boundEq(st, e.X, e.Y)
			}
		case token.NEQ:
			if !taken {
				c.boundEq(st, e.X, e.Y)
			}
		}
	}
}

// boundAbove clears v's taint when the bound is not attacker data
// itself. Parameter taint counts as a usable bound: a function clamping
// one parameter by another has made the caller responsible for the
// bound, not the attacker.
func (c *checker) boundAbove(st state, v, bound ast.Expr) {
	if c.taintOf(st, bound).mask&sourceBit != 0 {
		return
	}
	c.clearExpr(st, v)
}

// boundEq clears whichever side of an equality is tainted when the
// other side is clean: after `if mode == "lazy"`, mode is that value.
func (c *checker) boundEq(st state, x, y ast.Expr) {
	tx, ty := c.taintOf(st, x), c.taintOf(st, y)
	if tx.tainted() && ty.mask&sourceBit == 0 {
		c.clearExpr(st, x)
	}
	if ty.tainted() && tx.mask&sourceBit == 0 {
		c.clearExpr(st, y)
	}
}

// clearExpr marks the key of v explicitly clean, seeing through
// conversions and recording len(x) as x's "#len" pseudo-path.
func (c *checker) clearExpr(st state, v ast.Expr) {
	v = ast.Unparen(v)
	if call, ok := v.(*ast.CallExpr); ok {
		if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			c.clearExpr(st, call.Args[0]) // int64(v) bounded ⇒ v bounded
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) == 1 {
			if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "len" {
				if k, ok := c.keyOf(ast.Unparen(call.Args[0])); ok {
					setExplicit(st, tkey{k.root, k.path + "#len"}, tval{})
				}
				return
			}
		}
		return
	}
	if k, ok := c.keyOf(v); ok {
		setExplicit(st, k, tval{})
	}
}

// keyOf maps an expression to its tracking key: a variable, optionally
// with a chain of field selections.
func (c *checker) keyOf(e ast.Expr) (tkey, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := c.pass.TypesInfo.ObjectOf(e).(*types.Var); ok {
			return tkey{v, ""}, true
		}
	case *ast.SelectorExpr:
		sel := c.pass.TypesInfo.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return tkey{}, false
		}
		base, ok := c.keyOf(e.X)
		if !ok {
			return tkey{}, false
		}
		return tkey{base.root, base.path + "." + e.Sel.Name}, true
	case *ast.StarExpr:
		return c.keyOf(e.X)
	}
	return tkey{}, false
}

// requestDerived reports whether e reads off a *net/http.Request: a
// field or method chain rooted at a request-typed value. The Context
// method is excluded (a context is not attacker data).
func requestDerived(pass *analysis.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return requestTyped(pass, e.X) || requestDerived(pass, e.X)
	case *ast.CallExpr:
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if requestTyped(pass, sel.X) && sel.Sel.Name == "Context" {
			return false
		}
		return requestTyped(pass, sel.X) || requestDerived(pass, sel.X)
	case *ast.IndexExpr:
		return requestDerived(pass, e.X)
	}
	return false
}

func requestTyped(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// isDuration reports whether the expression's type is time.Duration.
func isDuration(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	n, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Duration"
}

func isSanitizer(fn *types.Func) bool {
	return fn.Name() == sanitizerBareName || sanitizerFullNames[fn.FullName()]
}

// recvExpr returns the receiver expression of a method call, nil for
// plain calls.
func recvExpr(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// argParamIndex maps an argument index to the callee parameter index it
// binds (collapsing extra variadic arguments onto the last parameter).
func argParamIndex(callee *types.Func, arg int) int {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return arg
	}
	n := sig.Params().Len()
	if sig.Variadic() && arg >= n-1 {
		return n - 1
	}
	if arg >= n {
		return arg
	}
	return arg
}
