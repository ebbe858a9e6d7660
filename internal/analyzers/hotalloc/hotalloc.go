// Package hotalloc enforces the zero-allocation contract documented on
// the scan-loop hot paths: a function whose doc comment carries
// "spanlint:hotpath" must be transitively allocation-free in the steady
// state, because the paper's constant-delay guarantee is voided the
// moment the per-byte loop hits the allocator (the PR-6 EvaluateScratch
// regression, machine-checked).
//
// Inside a hot-path function (and everything it reaches) the analyzer
// flags the allocation shapes Go hides in plain syntax: escaping
// composite literals (&T{…}, slice and map literals), new and make,
// append growth without capacity evidence, string↔[]byte conversions,
// string concatenation, interface boxing at call sites, closure
// creation, starting goroutines, and calls into functions whose summary
// says "may allocate".
//
// Two idioms are exempted because they are how warm steady-state code is
// written:
//
//   - capacity-managed growth: any allocation dominated by a branch
//     whose condition reads cap(…) (the arena's
//     `if len(a.cells) == cap(a.cells)` regrowth), and lazy
//     initialization under a nil check — cold paths that amortize away;
//   - evidenced appends: append(x[:0], …), or an append whose
//     destination is truncated (`x = x[:…]`) somewhere in the package —
//     the scratch-reuse idiom that recycles capacity across documents.
//
// The check is interprocedural: every package exports an AllocFact
// summary per may-allocate function, and call sites into imported
// module packages consult the callee's fact. Standard-library callees
// have no summaries; a conservative allowlist (pure scanners like
// bytes.IndexByte, math/bits, sync/atomic) passes, everything else —
// fmt very much included — is assumed to allocate. Dynamic calls
// through interfaces are not resolved (annotate the concrete
// implementations instead), and panic arguments are not flagged
// (failure paths are not steady state).
//
// Per-site waivers use the usual escape hatch:
//
//	//spanlint:ignore hotalloc one-time big-counter migration
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"spanners/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "check that spanlint:hotpath functions are transitively allocation-free\n\n" +
		"Functions marked spanlint:hotpath (the constant-delay scan loops)\n" +
		"must not allocate in the steady state: no escaping literals, make,\n" +
		"unevidenced append growth, boxing, closures, or calls into\n" +
		"may-allocate functions, tracked across packages via summaries.",
	Run:       run,
	FactTypes: []analysis.Fact{(*AllocFact)(nil)},
}

// An AllocFact is the exported summary of a package-level function that
// may allocate: its presence at a call site poisons hot-path callers in
// downstream packages. Allocation-free functions export nothing.
type AllocFact struct {
	// Why names the first allocation reason found, with its site, so a
	// cross-package diagnostic can point at the root cause.
	Why string
}

func (*AllocFact) AFact() {}

const marker = "spanlint:hotpath"

// allowedStdPkgs are standard-library packages every function of which
// is allocation-free.
var allowedStdPkgs = map[string]bool{
	"math/bits":   true,
	"sync/atomic": true,
}

// allowedStdFuncs are individually vetted allocation-free std functions.
var allowedStdFuncs = map[string]bool{
	"bytes.IndexByte":       true,
	"bytes.Index":           true,
	"bytes.LastIndexByte":   true,
	"bytes.Equal":           true,
	"bytes.HasPrefix":       true,
	"bytes.HasSuffix":       true,
	"strings.IndexByte":     true,
	"strings.Index":         true,
	"strings.LastIndexByte": true,
	"strings.HasPrefix":     true,
	"strings.HasSuffix":     true,
	"strings.EqualFold":     true,
	"sort.Search":           true,
	"time.Since":            true,
	"(time.Time).Sub":       true,
}

// site is one allocation inside a function body.
type site struct {
	pos token.Pos
	why string
}

// callEdge is one statically resolved call to a same-package function.
type callEdge struct {
	pos    token.Pos
	callee *types.Func
}

// fnInfo is the per-function scan result feeding the package fixpoint.
type fnInfo struct {
	decl   *ast.FuncDecl
	marked bool
	sites  []site     // local allocations (exemptions already applied)
	edges  []callEdge // same-package static calls
	// allocWhy is the propagated may-allocate verdict: empty means
	// allocation-free as far as the analysis can see.
	allocWhy string
}

func run(pass *analysis.Pass) (any, error) {
	evidence := truncationEvidence(pass)

	fns := make(map[*types.Func]*fnInfo)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			info := &fnInfo{decl: fd, marked: hasMarker(fd.Doc)}
			scanBody(pass, fd, evidence, info)
			fns[obj] = info
		}
	}

	// Seed each function's verdict from its local sites, then propagate
	// may-allocate through same-package calls to a fixpoint, exactly like
	// lockorder does for lock acquisition.
	for _, info := range fns {
		if len(info.sites) > 0 {
			info.allocWhy = siteWhy(pass, info.sites[0])
		}
	}
	for changed := true; changed; {
		changed = false
		for _, info := range fns {
			if info.allocWhy != "" {
				continue
			}
			for _, e := range info.edges {
				if ci := fns[e.callee]; ci != nil && ci.allocWhy != "" {
					info.allocWhy = fmt.Sprintf("calls %s: %s", e.callee.Name(), ci.allocWhy)
					changed = true
					break
				}
			}
		}
	}

	// Export summaries so downstream packages see through the call.
	for obj, info := range fns {
		if info.allocWhy != "" {
			pass.ExportObjectFact(obj, &AllocFact{Why: info.allocWhy})
		}
	}

	// Report inside marked functions: every local site, plus every call
	// into a may-allocate same-package function.
	for _, info := range fns {
		if !info.marked {
			continue
		}
		name := info.decl.Name.Name
		for _, s := range info.sites {
			pass.Reportf(s.pos, "%s is marked %s but %s", name, marker, s.why)
		}
		for _, e := range info.edges {
			if ci := fns[e.callee]; ci != nil && ci.allocWhy != "" {
				pass.Reportf(e.pos, "%s is marked %s but calls %s, which may allocate: %s",
					name, marker, e.callee.Name(), ci.allocWhy)
			}
		}
	}
	return nil, nil
}

// hasMarker reports whether doc carries the hotpath annotation: a line
// that begins with the marker, alone or followed by a dash- or
// colon-led explanation. A mention of the marker mid-sentence does not
// count, so doc comments may discuss the annotation without acquiring
// it (e.g. "carries no spanlint:hotpath annotation").
func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), marker)
		if !ok {
			continue
		}
		rest = strings.TrimSpace(rest)
		if rest == "" || strings.HasPrefix(rest, "—") || strings.HasPrefix(rest, "-") || strings.HasPrefix(rest, ":") {
			return true
		}
	}
	return false
}

// siteWhy renders a site for use in a summary, anchored to its position
// so the cross-package diagnostic names the root cause.
func siteWhy(pass *analysis.Pass, s site) string {
	pos := pass.Fset.Position(s.pos)
	return fmt.Sprintf("%s at %s:%d", s.why, filepath.Base(pos.Filename), pos.Line)
}

// scanBody records the allocation sites and same-package call edges of
// one function body, applying the cold-path exemptions.
func scanBody(pass *analysis.Pass, fd *ast.FuncDecl, evidence map[string]bool, info *fnInfo) {
	// A function that guards on cap(x) manages x's capacity by hand (the
	// arena regrowth shape): its appends to x are evidenced even though
	// the growth branch, not a truncation, supplies the room.
	local := capGuardKeys(pass, fd.Body)
	evOK := func(key string) bool { return evidence[key] || local[key] }

	exempt := exemptRanges(fd.Body)
	isExempt := func(pos token.Pos) bool {
		for _, r := range exempt {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}
	addSite := func(pos token.Pos, why string) {
		if !isExempt(pos) {
			info.sites = append(info.sites, site{pos, why})
		}
	}
	// Call edges honor the same exemptions as local sites: a call inside a
	// cold-path branch must not poison the caller's verdict.
	addEdge := func(pos token.Pos, callee *types.Func) {
		if !isExempt(pos) {
			info.edges = append(info.edges, callEdge{pos, callee})
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			addSite(n.Pos(), "creates a closure, which allocates")
			return false // the literal's body runs on its own schedule
		case *ast.GoStmt:
			addSite(n.Pos(), "starts a goroutine, which allocates")
		case *ast.CompositeLit:
			checkCompositeLit(pass, n, addSite)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					addSite(n.Pos(), "takes the address of a composite literal, which escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass, n) && pass.TypesInfo.Types[n].Value == nil {
				addSite(n.Pos(), "concatenates strings, which allocates")
			}
		case *ast.CallExpr:
			checkCall(pass, n, evOK, addSite, addEdge)
		}
		return true
	})
}

// capGuardKeys collects the destinations whose capacity the function
// visibly manages: every x appearing as cap(x) inside an if condition.
func capGuardKeys(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	keys := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "cap" && len(call.Args) == 1 {
				if key := exprKey(pass.TypesInfo, call.Args[0]); key != "" {
					keys[key] = true
				}
			}
			return true
		})
		return true
	})
	return keys
}

// checkCompositeLit flags slice and map literals: unlike a value struct
// literal, their backing storage is heap-allocated. Empty slice
// literals share the runtime's zero base and are exempt.
func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit, addSite func(token.Pos, string)) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		if len(lit.Elts) > 0 {
			addSite(lit.Pos(), "builds a slice literal, which allocates")
		}
	case *types.Map:
		addSite(lit.Pos(), "builds a map literal, which allocates")
	}
}

// checkCall classifies one call expression: builtin allocators,
// conversions, interface boxing of arguments, and the callee itself
// (std allowlist, same-package edge, or imported-package fact).
func checkCall(pass *analysis.Pass, call *ast.CallExpr, evOK func(string) bool, addSite func(token.Pos, string), addEdge func(token.Pos, *types.Func)) {
	// Type conversions first: T(x) parses as a call.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(pass, call, tv.Type, addSite)
		return
	}

	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				addSite(call.Pos(), "calls make, which allocates")
			case "new":
				addSite(call.Pos(), "calls new, which allocates")
			case "append":
				checkAppend(pass, call, evOK, addSite)
			case "panic":
				// Failure path, not steady state; arguments excused too.
			}
			return
		}
	}

	checkBoxing(pass, call, addSite)

	callee := pass.Callee(call)
	if callee == nil {
		return // dynamic or indirect call: not resolved, see package doc
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return // dynamic dispatch: annotate the concrete implementation
		}
	}
	switch pkg := callee.Pkg(); {
	case pkg == nil:
		// error.Error etc. on universe types; nothing to say.
	case pkg == pass.Pkg:
		addEdge(call.Pos(), callee)
	case sameModule(pkg.Path(), pass.Pkg.Path()):
		// An imported module package: it was summarized before this one
		// (dependency order), so a missing fact means allocation-free.
		var fact AllocFact
		if pass.ImportObjectFact(callee, &fact) {
			addSite(call.Pos(), fmt.Sprintf("calls %s, which may allocate: %s", callee.FullName(), fact.Why))
		}
	default:
		// Standard library (or foreign module): no summaries exist, only
		// the allowlist vouches for allocation-freedom.
		if !allowedStdPkgs[pkg.Path()] && !allowedStdFuncs[callee.FullName()] {
			addSite(call.Pos(), fmt.Sprintf("calls %s (no allocation-free guarantee)", callee.FullName()))
		}
	}
}

// checkConversion flags the conversions that copy their operand:
// string↔[]byte/[]rune, and boxing into an interface type.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, target types.Type, addSite func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	opTV, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	op := opTV.Type
	switch {
	case isString(target) && isByteOrRuneSlice(op),
		isByteOrRuneSlice(target) && isString(op):
		addSite(call.Pos(), "converts between string and []byte/[]rune, which copies and allocates")
	case types.IsInterface(target) && !types.IsInterface(op) && !pointerShaped(op) && opTV.Value == nil:
		addSite(call.Pos(), "boxes a value into an interface, which allocates")
	}
}

// checkAppend flags append calls lacking capacity evidence: neither the
// append(x[:0], …) form nor a truncation of the destination anywhere in
// the package.
func checkAppend(pass *analysis.Pass, call *ast.CallExpr, evOK func(string) bool, addSite func(token.Pos, string)) {
	if len(call.Args) == 0 {
		return
	}
	dest := call.Args[0]
	if _, ok := dest.(*ast.SliceExpr); ok {
		return // append(x[:k], …) reuses x's backing array by construction
	}
	if key := exprKey(pass.TypesInfo, dest); key != "" && evOK(key) {
		return // destination is truncated-and-refilled scratch
	}
	addSite(call.Pos(), "appends without capacity evidence, which may grow the backing array")
}

// checkBoxing flags arguments passed into interface-typed parameters of
// the callee when the argument is a concrete, non-pointer-shaped value:
// the conversion heap-allocates the boxed copy. Calls spread with …
// are skipped (the slice is passed through, nothing is boxed).
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, addSite func(token.Pos, string)) {
	if call.Ellipsis != token.NoPos {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			s, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = s.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Value != nil {
			continue // constants box from static data, no runtime allocation
		}
		if types.IsInterface(pt) && !types.IsInterface(at.Type) && !pointerShaped(at.Type) {
			addSite(arg.Pos(), "boxes an argument into an interface parameter, which allocates")
		}
	}
}

// exemptRanges returns the source ranges of cold-path code inside body:
// whole if-statements whose condition reads cap(…) (capacity-managed
// growth), then-branches of == nil checks and else-branches of != nil
// checks (lazy initialization).
func exemptRanges(body *ast.BlockStmt) [][2]token.Pos {
	var ranges [][2]token.Pos
	add := func(n ast.Node) {
		if n != nil {
			ranges = append(ranges, [2]token.Pos{n.Pos(), n.End()})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if condReadsCap(ifs.Cond) {
			add(ifs)
			return true
		}
		if op, ok := nilComparison(ifs.Cond); ok {
			switch op {
			case token.EQL:
				add(ifs.Body)
			case token.NEQ:
				add(ifs.Else)
			}
		}
		return true
	})
	return ranges
}

// condReadsCap reports whether the condition contains a cap(…) call —
// the signature of capacity-managed growth.
func condReadsCap(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "cap" {
				found = true
			}
		}
		return !found
	})
	return found
}

// nilComparison recognizes a top-level x == nil / x != nil condition.
func nilComparison(cond ast.Expr) (token.Token, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return 0, false
	}
	if isNilIdent(be.X) || isNilIdent(be.Y) {
		return be.Op, true
	}
	return 0, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// truncationEvidence collects the scratch-reuse proof sites of the
// package: every assignment of the shape x = x[:…] (or f.path =
// f.path[:…]) yields a key under which later appends to the same
// destination are considered capacity-evidenced. Field destinations are
// keyed by (owning type, field name) so evidence in one method (init's
// e.olds = e.olds[:0]) covers appends in another (capturing).
func truncationEvidence(pass *analysis.Pass) map[string]bool {
	evidence := make(map[string]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				se, ok := as.Rhs[i].(*ast.SliceExpr)
				if !ok {
					continue
				}
				lk := exprKey(pass.TypesInfo, as.Lhs[i])
				if lk != "" && lk == exprKey(pass.TypesInfo, se.X) {
					evidence[lk] = true
				}
			}
			return true
		})
	}
	return evidence
}

// exprKey returns a stable package-wide key for an append/truncation
// destination: the variable's identity for plain identifiers, the
// (owning type, field name) pair for field selections. An empty key
// means the destination shape is not tracked.
func exprKey(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(e).(*types.Var); ok {
			return fmt.Sprintf("var %p", v)
		}
	case *ast.SelectorExpr:
		sel := info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return ""
		}
		base := namedTypeName(info.Types[e.X].Type)
		if base == "" {
			return ""
		}
		return "field " + base + "." + e.Sel.Name
	}
	return ""
}

// namedTypeName names the type owning a selected field, through one
// level of pointer.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return obj.Name()
	}
	return ""
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Type != nil && isString(tv.Type)
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit in an interface word
// without a heap copy: pointers, channels, maps, functions, and unsafe
// pointers.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// sameModule reports whether two import paths share their first path
// element — the cheap stand-in for "same module" that distinguishes
// summarized sibling packages from the standard library without
// consulting go.mod.
func sameModule(a, b string) bool {
	return firstElem(a) == firstElem(b)
}

func firstElem(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}
