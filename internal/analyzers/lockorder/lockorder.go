// Package lockorder enforces the mutex discipline across the repo's
// locks (eva.Lazy.mu, cache.Cache.mu, corpus.Registry.mu, and every
// other sync.Mutex/RWMutex): within a function, every Lock/RLock must
// reach its matching Unlock/RUnlock on all paths — deferred unlocks
// cover panic paths, explicit ones do not — with no double-acquire and
// no mode mismatch (Unlock after RLock or vice versa, deferred or not);
// and no call, while a shared mutex is held, to a same-package function
// that (transitively, over a package-local call graph computed to a
// fixpoint) locks it again.
//
// The intra-procedural pass is a forward dataflow over the shared
// control-flow graphs: the state tracks, per mutex reference (rooted at
// a specific variable, so two locals named mu never alias), whether it
// may be held, whether it is definitely held (used for double-acquire
// and mode checks, so one-armed conditional locks do not false-
// positive), and whether release is deferred. Passing the unlock as a
// method value (`return s.mu.Unlock`) transfers the release
// obligation to the caller and discharges it here. Unlocking a mutex
// this function never locked is not reported: helpers that release a
// caller-held lock are legitimate.
//
// The same call-graph fixpoint enforces the lock-free Stats contract
// documented on spanner.WithLazy, so that metrics scrapes can never
// stall behind (or deadlock with) an evaluation filling the lazy table:
// a function whose doc comment carries "spanlint:nolock" must not
// take any mutex — function-local ones and sync.Locker included, inside
// its function literals too — nor call a function that (transitively)
// does. Hiding the lock one helper deeper, or in another package, does
// not evade the check: every function that acquires exports an
// AcquiresFact, which callers in downstream packages read.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"spanners/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check mutex pairing, mode, and reentrancy\n\n" +
		"Every sync.Mutex/RWMutex Lock or RLock must be released on all\n" +
		"paths (deferred to cover panics), never re-acquired while held,\n" +
		"directly or through a same-package call, and released in the\n" +
		"matching mode. Functions marked spanlint:nolock (the lock-free\n" +
		"Stats contract) must not acquire a mutex at all.",
	Requires:  []*analysis.Analyzer{analysis.CFGAnalyzer},
	Run:       run,
	FactTypes: []analysis.Fact{(*AcquiresFact)(nil)},
}

// An AcquiresFact marks a function that takes a mutex, directly, in a
// function literal, or through a call it makes.
type AcquiresFact struct{}

func (*AcquiresFact) AFact() {}

// lock method classification by types.Func full name.
var lockMethods = map[string]event{
	"(*sync.Mutex).Lock":      {kind: acquire, mode: 'W'},
	"(*sync.Mutex).Unlock":    {kind: release, mode: 'W'},
	"(*sync.RWMutex).Lock":    {kind: acquire, mode: 'W'},
	"(*sync.RWMutex).Unlock":  {kind: release, mode: 'W'},
	"(*sync.RWMutex).RLock":   {kind: acquire, mode: 'R'},
	"(*sync.RWMutex).RUnlock": {kind: release, mode: 'R'},
}

// acquiresMutex reports whether fn takes a mutex: Lock or RLock on a
// sync.Mutex/RWMutex, or Lock through a sync.Locker.
func acquiresMutex(fn *types.Func) bool {
	ev, ok := lockMethods[fn.FullName()]
	return ok && ev.kind == acquire || fn.FullName() == "(sync.Locker).Lock"
}

// nolockMarker tags the functions that must stay lock-free.
const nolockMarker = "spanlint:nolock"

type eventKind uint8

const (
	acquire eventKind = iota
	release
)

type event struct {
	kind eventKind
	mode byte // 'W' or 'R'
}

// refKey names a specific mutex reference path — `mu`, `c.mu` — rooted
// at a resolved object.
type refKey struct {
	root types.Object
	path string
}

func describeKey(k refKey) string { return k.root.Name() + k.path }

// lockInfo is the per-mutex dataflow fact.
type lockInfo struct {
	mode byte
	pos  token.Pos
	// class is the package-visible identity of the mutex (a struct
	// field or package-level variable), nil for locals; a call is
	// checked for re-entrancy against the held classes.
	class types.Object
	// deferred: the matching unlock is deferred from here on (covers
	// panic paths too).
	deferred bool
	// definite: held on every path reaching this point, not just some.
	// Double-acquire and mode-mismatch checks require it.
	definite bool
}

type state map[refKey]lockInfo

func (st state) clone() state {
	c := make(state, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

func join(dst, src state) state {
	for k, sv := range src {
		if dv, ok := dst[k]; ok {
			m := dv
			m.definite = dv.definite && sv.definite
			m.deferred = dv.deferred && sv.deferred
			if dv.mode != sv.mode {
				m.mode = 'W'
			}
			if sv.pos < m.pos {
				m.pos = sv.pos
			}
			dst[k] = m
		} else {
			sv.definite = false
			dst[k] = sv
		}
	}
	for k, dv := range dst {
		if _, ok := src[k]; !ok && dv.definite {
			dv.definite = false
			dst[k] = dv
		}
	}
	return dst
}

func equal(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if bv, ok := b[k]; !ok || av != bv {
			return false
		}
	}
	return true
}

func run(pass *analysis.Pass) (any, error) {
	cfgs := pass.ResultOf[analysis.CFGAnalyzer].(*analysis.CFGs)
	pc := &pkgChecker{
		pass:      pass,
		cfgs:      cfgs,
		summaries: make(map[*types.Func]*summary),
		reported:  make(map[token.Pos]bool),
	}
	pc.buildSummaries()
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				if g := cfgs.FuncCFG(n); g != nil {
					pc.checkFunc(g)
				}
			}
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil && fd.Doc != nil && strings.Contains(fd.Doc.Text(), nolockMarker) {
				pc.checkNoLock(fd)
			}
			return true
		})
	}
	return nil, nil
}

// summary is the cross-function fact of one declared function: the lock
// classes it acquires, directly or through same-package calls.
type summary struct {
	name    string
	locks   map[types.Object]bool
	callees []*types.Func
	// acquires is set when the function takes any mutex, classless ones
	// included, directly, in a nested function literal, or through a
	// call into another package whose AcquiresFact says so, or a
	// same-package call; litCallees are the same-package calls made from
	// literals. Only the spanlint:nolock check reads it.
	acquires   bool
	litCallees []*types.Func
}

type pkgChecker struct {
	pass      *analysis.Pass
	cfgs      *analysis.CFGs
	summaries map[*types.Func]*summary
	// reported dedups per-acquisition diagnostics across the exits of a
	// function.
	reported map[token.Pos]bool
}

// buildSummaries collects each declared function's directly acquired
// lock classes and same-package callees, then propagates acquisition
// through the call graph to a fixpoint, and exports an AcquiresFact for
// every function that acquires. Nested function literals count only
// towards the acquires bit: when they run is not the caller's program
// point.
func (pc *pkgChecker) buildSummaries() {
	for _, file := range pc.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pc.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			sum := &summary{name: fd.Name.Name, locks: make(map[types.Object]bool)}
			var walk func(n ast.Node, inLit bool)
			walk = func(n ast.Node, inLit bool) {
				ast.Inspect(n, func(m ast.Node) bool {
					if lit, isLit := m.(*ast.FuncLit); isLit {
						walk(lit.Body, true)
						return false
					}
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := pc.pass.Callee(call)
					switch {
					case callee == nil:
					case acquiresMutex(callee):
						sum.acquires = true
						if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && !inLit {
							if cls := pc.classOf(sel.X); cls != nil {
								sum.locks[cls] = true
							}
						}
					case callee.Pkg() != pc.pass.Pkg:
						sum.acquires = sum.acquires || pc.pass.ImportObjectFact(callee, new(AcquiresFact))
					case inLit:
						sum.litCallees = append(sum.litCallees, callee)
					default:
						sum.callees = append(sum.callees, callee)
					}
					return true
				})
			}
			walk(fd.Body, false)
			pc.summaries[obj] = sum
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sum := range pc.summaries {
			for _, callee := range sum.callees {
				cs := pc.summaries[callee]
				if cs == nil {
					continue
				}
				for cls := range cs.locks {
					if !sum.locks[cls] {
						sum.locks[cls] = true
						changed = true
					}
				}
			}
			if sum.acquires {
				continue
			}
			for _, callee := range slices.Concat(sum.callees, sum.litCallees) {
				if cs := pc.summaries[callee]; cs != nil && cs.acquires {
					sum.acquires, changed = true, true
					break
				}
			}
		}
	}
	for obj, sum := range pc.summaries {
		if sum.acquires {
			pc.pass.ExportObjectFact(obj, &AcquiresFact{})
		}
	}
}

// checkNoLock reports every site in a spanlint:nolock function, its
// function literals included, that takes a mutex or calls a function
// that (transitively) does.
func (pc *pkgChecker) checkNoLock(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := pc.pass.Callee(call)
		if callee == nil {
			return true
		}
		if acquiresMutex(callee) {
			pc.pass.Reportf(call.Pos(), "%s is marked %s but acquires a mutex here; the stats path must stay lock-free", fd.Name.Name, nolockMarker)
		} else if cs := pc.summaries[callee]; cs != nil && cs.acquires ||
			callee.Pkg() != pc.pass.Pkg && pc.pass.ImportObjectFact(callee, new(AcquiresFact)) {
			pc.pass.Reportf(call.Pos(), "%s is marked %s but calls %s, which acquires a mutex; the stats path must stay lock-free", fd.Name.Name, nolockMarker, callee.Name())
		}
		return true
	})
}

func (pc *pkgChecker) checkFunc(g *analysis.CFG) {
	flow := &analysis.Flow[state]{
		CFG:   g,
		Entry: state{},
		Clone: state.clone,
		Join:  join,
		Equal: equal,
		Transfer: func(b *analysis.Block, st state) state {
			for _, n := range b.Nodes {
				pc.node(n, st, false)
			}
			return st
		},
	}
	in, reached := flow.Solve()
	for i, b := range g.Blocks {
		if !reached[i] {
			continue
		}
		st := in[i].clone()
		for _, n := range b.Nodes {
			pc.node(n, st, true)
		}
		switch b.Exit {
		case analysis.ExitReturn, analysis.ExitFall:
			at := g.End
			if b.Exit == analysis.ExitReturn {
				at = b.Nodes[len(b.Nodes)-1].Pos()
			}
			for _, k := range sortedKeys(st) {
				info := st[k]
				if info.deferred || pc.reported[info.pos] {
					continue
				}
				pc.reported[info.pos] = true
				pc.pass.Reportf(at, "%s is %s (line %d) but not unlocked on this path; release it before returning or defer the unlock",
					describeKey(k), lockedWord(info.mode), pc.line(info.pos))
			}
		case analysis.ExitPanic:
			for _, k := range sortedKeys(st) {
				info := st[k]
				if info.deferred || pc.reported[info.pos] {
					continue
				}
				pc.reported[info.pos] = true
				pc.pass.Reportf(b.Nodes[len(b.Nodes)-1].Pos(), "%s is %s (line %d) and still held at this panic; defer the unlock so panic paths release it",
					describeKey(k), lockedWord(info.mode), pc.line(info.pos))
			}
		}
	}
}

func lockedWord(mode byte) string {
	if mode == 'R' {
		return "read-locked"
	}
	return "locked"
}

func (pc *pkgChecker) line(p token.Pos) int { return pc.pass.Fset.Position(p).Line }

// node applies one CFG node to the state. Nested function literals are
// skipped except inside defer, where an unlocking closure counts as a
// deferred release. With report set, double-acquire, mode-mismatch, and
// re-entrancy diagnostics fire.
func (pc *pkgChecker) node(n ast.Node, st state, report bool) {
	if d, ok := n.(*ast.DeferStmt); ok {
		pc.deferNode(d, st, report)
		return
	}
	// Selectors in call position are events; bare lock-method selectors
	// are escaping method values.
	inCallPos := make(map[ast.Expr]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			inCallPos[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
				if ev, key, ok := pc.lockMethodOn(sel); ok {
					pc.apply(ev, key, sel, m, st, report)
					return true
				}
			}
			if report {
				pc.callSite(m, st)
			}
		case *ast.SelectorExpr:
			if !inCallPos[ast.Expr(m)] {
				if _, key, ok := pc.lockMethodOn(m); ok {
					// Method value escape: the obligation moves with the
					// value.
					delete(st, key)
				}
			}
		}
		return true
	})
}

// apply transitions the state for one Lock/Unlock-family call.
func (pc *pkgChecker) apply(ev event, key refKey, sel *ast.SelectorExpr, call *ast.CallExpr, st state, report bool) {
	switch ev.kind {
	case acquire:
		if held, ok := st[key]; ok && held.definite {
			if report && !pc.reported[call.Pos()] {
				pc.reported[call.Pos()] = true
				if held.mode == 'R' && ev.mode == 'R' {
					pc.pass.Reportf(call.Pos(), "%s is already read-locked (line %d); a second RLock on this path can deadlock with a waiting writer",
						describeKey(key), pc.line(held.pos))
				} else {
					pc.pass.Reportf(call.Pos(), "%s is already %s (line %d); acquiring it again on this path deadlocks — sync mutexes are not reentrant",
						describeKey(key), lockedWord(held.mode), pc.line(held.pos))
				}
			}
		}
		st[key] = lockInfo{mode: ev.mode, pos: call.Pos(), class: pc.classOf(sel.X), definite: true}
	case release:
		if held, ok := st[key]; ok {
			if report {
				pc.checkMode(key, held, ev, call)
			}
			delete(st, key)
		}
		// Releasing a lock this function never acquired is legitimate:
		// helpers may unlock for a caller.
	}
}

// checkMode reports a release, immediate or deferred, whose mode does not
// match the definitely held lock's.
func (pc *pkgChecker) checkMode(key refKey, held lockInfo, ev event, call *ast.CallExpr) {
	if !held.definite || held.mode == ev.mode || pc.reported[call.Pos()] {
		return
	}
	pc.reported[call.Pos()] = true
	if held.mode == 'R' {
		pc.pass.Reportf(call.Pos(), "%s is read-locked (line %d) but released with Unlock; use RUnlock", describeKey(key), pc.line(held.pos))
	} else {
		pc.pass.Reportf(call.Pos(), "%s is write-locked (line %d) but released with RUnlock; use Unlock", describeKey(key), pc.line(held.pos))
	}
}

// callSite checks a call to a same-package function against the held
// locks: re-acquiring a held class deadlocks.
func (pc *pkgChecker) callSite(call *ast.CallExpr, st state) {
	callee := pc.pass.Callee(call)
	if callee == nil {
		return
	}
	sum := pc.summaries[callee]
	if sum == nil || len(sum.locks) == 0 {
		return
	}
	for _, k := range sortedKeys(st) {
		info := st[k]
		if info.class == nil || !info.definite {
			continue
		}
		if sum.locks[info.class] && !pc.reported[call.Pos()] {
			pc.reported[call.Pos()] = true
			pc.pass.Reportf(call.Pos(), "calling %s while holding %s (line %d): %s (transitively) locks it again — self-deadlock",
				sum.name, describeKey(k), pc.line(info.pos), sum.name)
		}
	}
}

// deferNode marks deferred releases: `defer mu.Unlock()` directly, or a
// deferred closure whose body unlocks. With report set, a deferred
// release in the wrong mode is reported.
func (pc *pkgChecker) deferNode(d *ast.DeferStmt, st state, report bool) {
	mark := func(call *ast.CallExpr) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if ev, key, ok := pc.lockMethodOn(sel); ok && ev.kind == release {
				if info, held := st[key]; held {
					if report {
						pc.checkMode(key, info, ev, call)
					}
					info.deferred = true
					st[key] = info
				}
			}
		}
	}
	mark(d.Call)
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				mark(call)
			}
			return true
		})
	}
}

// lockMethodOn classifies sel as a Lock-family method on a trackable
// mutex reference.
func (pc *pkgChecker) lockMethodOn(sel *ast.SelectorExpr) (event, refKey, bool) {
	fn, _ := pc.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return event{}, refKey{}, false
	}
	ev, ok := lockMethods[fn.FullName()]
	if !ok {
		return event{}, refKey{}, false
	}
	key, ok := pc.exprKey(sel.X)
	if !ok {
		return event{}, refKey{}, false
	}
	return ev, key, true
}

func (pc *pkgChecker) exprKey(e ast.Expr) (refKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pc.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pc.pass.TypesInfo.Defs[e]
		}
		if obj == nil {
			return refKey{}, false
		}
		return refKey{root: obj}, true
	case *ast.SelectorExpr:
		base, ok := pc.exprKey(e.X)
		if !ok {
			return refKey{}, false
		}
		base.path += "." + e.Sel.Name
		return base, true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return pc.exprKey(e.X)
		}
	case *ast.StarExpr:
		return pc.exprKey(e.X)
	}
	return refKey{}, false
}

// classOf resolves the receiver of a lock call to its package-visible
// class: the struct field object for `x.mu`, or the variable object for
// a package-level `var mu`. Function-local mutexes have no class (they
// cannot participate in cross-function order).
func (pc *pkgChecker) classOf(recv ast.Expr) types.Object {
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if obj, ok := pc.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && obj.IsField() {
			return obj
		}
	case *ast.Ident:
		obj := pc.pass.TypesInfo.Uses[e]
		if obj == nil {
			return nil
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v
		}
	}
	return nil
}

// sortedKeys returns the state's keys in a deterministic order (by root
// object position, then path).
func sortedKeys(st state) []refKey {
	keys := make([]refKey, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].root.Pos() != keys[j].root.Pos() {
			return keys[i].root.Pos() < keys[j].root.Pos()
		}
		return strings.Compare(keys[i].path, keys[j].path) < 0
	})
	return keys
}
