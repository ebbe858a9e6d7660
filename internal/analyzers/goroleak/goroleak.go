// Package goroleak enforces the "no goroutines are leaked" contract the
// engine and cluster packages document: every goroutine launched in a
// library package must carry a statically visible termination guarantee.
// Accepted guarantees, scanned over the reachable blocks of the launched
// body's control-flow graph (nested closures included):
//
//   - a context cancellation check: a receive from ctx.Done(), or a
//     ctx.Err() call, on a context.Context value;
//   - a close-signaled channel: ranging over a channel, a comma-ok
//     receive (`v, ok := <-ch`), or a receive from a chan struct{} (the
//     done-channel idiom);
//   - a WaitGroup handshake: the body calls wg.Done on a WaitGroup that
//     some function in the package Waits on.
//
// Bodies with none of these are reported only when they could actually
// run forever or block: a `for` loop, a select, or any channel
// send/receive triggers the requirement; a straight-line or
// bounded-range compute body passes. Independent of the evidence
// question, a body that calls wg.Done on a Waited WaitGroup on some
// paths but not all is reported — that shape hangs the launcher's Wait,
// which is worse than a leak. Test files and package main are exempt
// (their goroutines die with the process or the test).
package goroleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"spanners/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc: "check that library goroutines have a termination guarantee\n\n" +
		"Every go statement in a non-main, non-test package must launch a\n" +
		"body with a reachable ctx.Done()/ctx.Err() check, a close-signaled\n" +
		"channel receive, or a WaitGroup.Done matched by a Wait; and a Done\n" +
		"on a Waited WaitGroup must happen on every exit path.",
	Requires: []*analysis.Analyzer{analysis.CFGAnalyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	cfgs := pass.ResultOf[analysis.CFGAnalyzer].(*analysis.CFGs)
	c := &checker{pass: pass, cfgs: cfgs}
	c.collectPackageFacts()
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				c.checkGo(g)
			}
			return true
		})
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	cfgs *analysis.CFGs
	// decls maps package functions to their declarations, for resolving
	// `go pump(ch)` launches.
	decls map[*types.Func]*ast.FuncDecl
	// waited holds the reference keys of every WaitGroup some function
	// in the package calls Wait on.
	waited map[refKey]bool
}

// refKey names a specific variable reference path — `wg`, `c.wg`,
// `s.pool.wg` — rooted at a resolved object, so two locals named wg in
// different functions never alias.
type refKey struct {
	root types.Object
	path string
}

func (c *checker) collectPackageFacts() {
	c.decls = make(map[*types.Func]*ast.FuncDecl)
	c.waited = make(map[refKey]bool)
	for _, file := range c.pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[obj] = fd
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if c.methodFullName(call) == "(*sync.WaitGroup).Wait" {
				if key, ok := c.receiverKey(call); ok {
					c.waited[key] = true
				}
			}
			return true
		})
	}
}

func (c *checker) checkGo(g *ast.GoStmt) {
	body := c.launchedBody(g.Call)
	if body == nil {
		c.pass.Reportf(g.Pos(), "cannot verify termination of this goroutine: the launched function is not defined in this package; launch a function literal or a package-local function")
		return
	}
	nodes := c.reachableNodes(body)

	// WaitGroup discipline first: a some-paths-only Done hangs the
	// launcher's Wait regardless of any other termination evidence.
	doneKeys := c.doneCalls(nodes)
	var waitedDone *refKey
	for i, key := range doneKeys {
		if c.waited[key] {
			waitedDone = &doneKeys[i]
			break
		}
	}
	if waitedDone != nil && !c.doneOnAllPaths(body, *waitedDone) {
		c.pass.Reportf(g.Pos(), "goroutine calls %s on some paths only while the launcher Waits; defer the Done call so Wait cannot hang",
			describeKey(*waitedDone)+".Done")
		return
	}
	if waitedDone != nil {
		return // a sound WaitGroup handshake is a termination guarantee
	}
	if c.hasTerminationEvidence(nodes) {
		return
	}
	if !c.needsGuarantee(body) {
		return // straight-line or bounded-range compute: runs off the end
	}
	c.pass.Reportf(g.Pos(), "goroutine has no termination guarantee: no ctx.Done()/ctx.Err() check, close-signaled channel receive, or WaitGroup.Done matched by a Wait (see the engine.ProcessContext contract)")
}

// launchedBody resolves the body the go statement runs: a function
// literal inline, or the declaration of a package-local function or
// method. Cross-package and dynamic launches return nil.
func (c *checker) launchedBody(call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fd := c.decls[c.pass.Callee(call)]; fd != nil {
		return fd.Body
	}
	return nil
}

// reachableNodes returns the nodes of the body's reachable CFG blocks,
// in block order. Code after an unconditional return or terminal call
// contributes no evidence.
func (c *checker) reachableNodes(body *ast.BlockStmt) []ast.Node {
	g := c.cfgForBody(body)
	if g == nil {
		// Not a function body the ctrlflow pass saw (should not happen);
		// fall back to the raw statement list.
		nodes := make([]ast.Node, len(body.List))
		for i, s := range body.List {
			nodes[i] = s
		}
		return nodes
	}
	reach := g.Reachable()
	var nodes []ast.Node
	for _, b := range g.Blocks {
		if reach[b.Index] {
			nodes = append(nodes, b.Nodes...)
		}
	}
	return nodes
}

// cfgForBody finds the CFG whose function owns body.
func (c *checker) cfgForBody(body *ast.BlockStmt) *analysis.CFG {
	for _, file := range c.pass.Files {
		if body.Pos() < file.Pos() || body.End() > file.End() {
			continue
		}
		var g *analysis.CFG
		ast.Inspect(file, func(n ast.Node) bool {
			if g != nil {
				return false
			}
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == body {
					g = c.cfgs.FuncCFG(fn)
					return false
				}
			case *ast.FuncLit:
				if fn.Body == body {
					g = c.cfgs.FuncCFG(fn)
					return false
				}
			}
			return true
		})
		if g != nil {
			return g
		}
	}
	return nil
}

// hasTerminationEvidence scans the node subtrees (nested closures
// included: callbacks and deferred functions run on this goroutine) for
// any accepted termination signal.
func (c *checker) hasTerminationEvidence(nodes []ast.Node) bool {
	found := false
	for _, root := range nodes {
		if found {
			break
		}
		ast.Inspect(root, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && c.closeSignalRecv(n.X) {
					found = true
				}
			case *ast.CallExpr:
				// ctx.Err() polled anywhere counts: the engine's pump
				// checks it between chunks.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Err" && c.isContext(sel.X) {
					found = true
				}
			case *ast.RangeStmt:
				if c.isChan(n.X) {
					found = true // terminates when the launcher closes the channel
				}
			case *ast.AssignStmt:
				// v, ok := <-ch — the comma-ok close check.
				if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
					if ue, ok := n.Rhs[0].(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
						found = true
					}
				}
			}
			return !found
		})
	}
	return found
}

// closeSignalRecv reports whether receiving from e is a termination
// signal: ctx.Done(), or any chan struct{} (the done-channel idiom).
func (c *checker) closeSignalRecv(e ast.Expr) bool {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			sel.Sel.Name == "Done" && c.isContext(sel.X) {
			return true
		}
	}
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// needsGuarantee reports whether the body could run forever or block: a
// for loop, a select, or any channel operation. Bounded ranges over
// slices and maps do not count.
func (c *checker) needsGuarantee(body *ast.BlockStmt) bool {
	needs := false
	ast.Inspect(body, func(n ast.Node) bool {
		if needs {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.SelectStmt, *ast.SendStmt:
			needs = true
		case *ast.RangeStmt:
			if c.isChan(n.X) {
				needs = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				needs = true
			}
		}
		return !needs
	})
	return needs
}

// doneCalls collects the reference keys of every wg.Done() call in the
// node subtrees.
func (c *checker) doneCalls(nodes []ast.Node) []refKey {
	var keys []refKey
	seen := make(map[refKey]bool)
	for _, root := range nodes {
		ast.Inspect(root, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if c.methodFullName(call) == "(*sync.WaitGroup).Done" {
				if key, ok := c.receiverKey(call); ok && !seen[key] {
					seen[key] = true
					keys = append(keys, key)
				}
			}
			return true
		})
	}
	return keys
}

// doneOnAllPaths runs a must-analysis over the body's CFG: at every
// return or fall-off exit, key.Done() must have run or be deferred; at
// a panic exit only a deferred Done counts.
func (c *checker) doneOnAllPaths(body *ast.BlockStmt, key refKey) bool {
	g := c.cfgForBody(body)
	if g == nil {
		return true // cannot prove a violation without a graph
	}
	type doneState struct{ called, deferred bool }
	flow := &analysis.Flow[doneState]{
		CFG:   g,
		Entry: doneState{},
		Clone: func(s doneState) doneState { return s },
		Join: func(dst, src doneState) doneState {
			return doneState{called: dst.called && src.called, deferred: dst.deferred && src.deferred}
		},
		Equal: func(a, b doneState) bool { return a == b },
		Transfer: func(b *analysis.Block, s doneState) doneState {
			for _, n := range b.Nodes {
				switch n := n.(type) {
				case *ast.DeferStmt:
					if c.callsDone(n.Call, key) {
						s.deferred = true
					}
				default:
					// A direct wg.Done() anywhere in the node (including
					// the last statement before return).
					direct := false
					ast.Inspect(n, func(m ast.Node) bool {
						if direct {
							return false
						}
						if _, isLit := m.(*ast.FuncLit); isLit {
							return false // a non-deferred closure may never run
						}
						if call, ok := m.(*ast.CallExpr); ok && c.isDoneCall(call, key) {
							direct = true
						}
						return true
					})
					if direct {
						s.called = true
					}
				}
			}
			return s
		},
	}
	in, reached := flow.Solve()
	for i, b := range g.Blocks {
		if !reached[i] || b.Exit == analysis.ExitNone {
			continue
		}
		s := flow.BlockExit(b, in[i])
		switch b.Exit {
		case analysis.ExitPanic:
			if !s.deferred {
				return false
			}
		default: // return or fall-off
			if !s.called && !s.deferred {
				return false
			}
		}
	}
	return true
}

// callsDone reports whether the deferred call is wg.Done itself or a
// closure that (transitively, literals included) calls it.
func (c *checker) callsDone(call *ast.CallExpr, key refKey) bool {
	if c.isDoneCall(call, key) {
		return true
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if inner, ok := n.(*ast.CallExpr); ok && c.isDoneCall(inner, key) {
				found = true
			}
			return true
		})
		return found
	}
	return false
}

func (c *checker) isDoneCall(call *ast.CallExpr, key refKey) bool {
	if c.methodFullName(call) != "(*sync.WaitGroup).Done" {
		return false
	}
	k, ok := c.receiverKey(call)
	return ok && k == key
}

// methodFullName returns the types.Func full name of a method call, or
// "".
func (c *checker) methodFullName(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return ""
	}
	return fn.FullName()
}

// receiverKey resolves the receiver expression of a method call to a
// stable reference key: a chain of selectors over a root identifier.
func (c *checker) receiverKey(call *ast.CallExpr) (refKey, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return refKey{}, false
	}
	return c.exprKey(sel.X)
}

func (c *checker) exprKey(e ast.Expr) (refKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return refKey{}, false
		}
		return refKey{root: obj}, true
	case *ast.SelectorExpr:
		base, ok := c.exprKey(e.X)
		if !ok {
			return refKey{}, false
		}
		base.path += "." + e.Sel.Name
		return base, true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.exprKey(e.X)
		}
	case *ast.StarExpr:
		return c.exprKey(e.X)
	}
	return refKey{}, false
}

func describeKey(k refKey) string {
	return k.root.Name() + k.path
}

// isContext reports whether e has type context.Context.
func (c *checker) isContext(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func (c *checker) isChan(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
