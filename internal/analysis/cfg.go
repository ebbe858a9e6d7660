// Control-flow graphs over ast.Stmt, in the spirit of
// golang.org/x/tools/go/cfg: each function body is lowered to basic
// blocks of simple statements and expressions, with edges for every way
// control can actually move — if/for/range arms, switch and select
// clauses, goto, labeled and unlabeled break/continue, fallthrough, and
// calls that never return (panic, os.Exit, log.Fatal, testing's
// Fatal/Skip family). Statements with no control effect (assignments,
// sends, defers, go statements) appear as block nodes in execution
// order; the branch condition of an if/for is the last node of its
// block, with the true edge first (see Block.CondSplit and CondEdge).
//
// The graph deliberately mirrors x/tools' shape so analyzers written
// against it port across, with two documented simplifications: case
// expressions of a switch are evaluated in the switch head block rather
// than in per-case test blocks, and a range statement appears as a
// single head node (covering both the range operand and the
// per-iteration key/value assignment) with the zero-iteration edge to
// the follow block always present.
package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
)

// A CFG is the control-flow graph of one function body. Blocks[0] is the
// entry block; block order follows construction (roughly source order).
type CFG struct {
	Blocks []*Block
	// End is the closing brace of the body: the position analyzers
	// should anchor fall-off-the-end diagnostics to.
	End token.Pos
}

// ExitKind classifies how a no-successor block leaves the function.
type ExitKind uint8

const (
	// ExitNone marks a block that does not leave the function (every
	// block with successors, and blocked shapes like an empty select).
	ExitNone ExitKind = iota
	// ExitReturn marks a block ending in an explicit return.
	ExitReturn
	// ExitPanic marks a block ending in a call that never returns
	// (panic, os.Exit, log.Fatal, ...). Deferred calls still run on
	// panic paths; nothing after the call does.
	ExitPanic
	// ExitFall marks the block that falls off the closing brace of the
	// body (the implicit return of a function without results).
	ExitFall
)

// A Block is one basic block: a maximal straight-line sequence of
// simple statements and evaluated expressions.
type Block struct {
	Index int
	// Kind describes the block's role ("entry", "if.then", "for.head",
	// "switch.case", "label.retry", ...) for debugging and tests.
	Kind string
	// Nodes holds the block's statements and expressions in execution
	// order. Control statements are dissolved into edges and do not
	// appear; if/for conditions, switch tags and case expressions, and
	// range statements do.
	Nodes []ast.Node
	// Succs are the successor blocks. For a CondSplit block there are
	// exactly two: Succs[0] when the condition is true, Succs[1] when
	// false.
	Succs []*Block
	// CondSplit reports that this block ends in a boolean branch
	// condition (if or for): the last node is the condition expression
	// and the two successors are the true and false edges, in order.
	CondSplit bool
	// Exit classifies how a no-successor block leaves the function.
	Exit ExitKind
}

// CondEdge reports the branch condition governing the from→to edge.
// ok is true only when from is a two-way conditional block (an if or
// for condition); cond is then the condition expression and taken
// reports whether this edge is the true branch. Analyzers use this for
// path refinement (nil checks, error conventions).
func CondEdge(from, to *Block) (cond ast.Expr, taken bool, ok bool) {
	if !from.CondSplit || len(from.Succs) != 2 || len(from.Nodes) == 0 {
		return nil, false, false
	}
	if from.Succs[0] == from.Succs[1] {
		return nil, false, false // ambiguous edge: no refinement
	}
	cond, _ = from.Nodes[len(from.Nodes)-1].(ast.Expr)
	if cond == nil {
		return nil, false, false
	}
	return cond, to == from.Succs[0], true
}

// TerminalCall reports whether e is a call that never returns: the
// panic builtin, or a selector call named like the conventional
// process/test terminators (os.Exit, log.Fatal*, runtime.Goexit,
// testing's Fatal*/Skip*/FailNow). It is syntactic; NewCFG callers with
// type information can substitute a sharper predicate.
func TerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "Skip", "Skipf", "SkipNow", "FailNow", "Goexit":
			return true
		}
	}
	return false
}

// NewCFG builds the control-flow graph of body. mayTerminate reports
// whether a statement-level call ends the path without returning; nil
// selects TerminalCall.
func NewCFG(body *ast.BlockStmt, mayTerminate func(*ast.CallExpr) bool) *CFG {
	if mayTerminate == nil {
		mayTerminate = func(call *ast.CallExpr) bool { return TerminalCall(call) }
	}
	b := &builder{
		cfg:     &CFG{End: body.Rbrace},
		mayTerm: mayTerminate,
		labels:  make(map[string]*lblock),
	}
	b.current = b.newBlock("entry")
	b.stmtList(body.List)
	if b.current.Succs == nil && b.current.Exit == ExitNone {
		b.current.Exit = ExitFall
	}
	return b.cfg
}

// lblock holds the blocks a label resolves to: the goto target, and —
// once the labeled statement turns out to be a loop, switch, or select —
// the labeled break and continue targets.
type lblock struct {
	gotoB  *Block
	breakB *Block
	contB  *Block
}

// targets is the stack of enclosing breakable/continuable constructs.
type targets struct {
	prev      *targets
	breakB    *Block
	continueB *Block // nil for switch and select
}

type builder struct {
	cfg     *CFG
	mayTerm func(*ast.CallExpr) bool
	current *Block
	targets *targets
	labels  map[string]*lblock
	// label is the pending lblock of a just-entered labeled statement,
	// consumed by the next loop/switch/select so `break L`/`continue L`
	// resolve.
	label *lblock
	// fallthroughB is the next case body of the switch being built.
	fallthroughB *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) add(n ast.Node) { b.current.Nodes = append(b.current.Nodes, n) }

// jump adds the edge current→t unless current already branched or
// terminated.
func (b *builder) jump(t *Block) {
	if b.current.Succs == nil && b.current.Exit == ExitNone {
		b.current.Succs = []*Block{t}
	}
}

// takeLabel consumes the pending label of a labeled loop/switch/select.
func (b *builder) takeLabel() *lblock {
	lb := b.label
	b.label = nil
	return lb
}

func (b *builder) labelBlock(name string) *lblock {
	lb := b.labels[name]
	if lb == nil {
		lb = &lblock{gotoB: b.newBlock("label." + name)}
		b.labels[name] = lb
	}
	return lb
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.BadStmt, *ast.EmptyStmt:
		// no effect
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb.gotoB)
		b.current = lb.gotoB
		b.label = lb
		b.stmt(s.Stmt)
		b.label = nil
	case *ast.ReturnStmt:
		b.add(s)
		b.current.Exit = ExitReturn
		b.current = b.newBlock("unreachable.return")
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.mayTerm(call) {
			b.current.Exit = ExitPanic
			b.current = b.newBlock("unreachable.panic")
		}
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, true, b.takeLabel())
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, false, b.takeLabel())
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	default:
		// Assign, Decl, Send, IncDec, Defer, Go: straight-line nodes.
		b.add(s)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	var target *Block
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if lb := b.labels[s.Label.Name]; lb != nil {
				target = lb.breakB
			}
		} else {
			for t := b.targets; t != nil; t = t.prev {
				if t.breakB != nil {
					target = t.breakB
					break
				}
			}
		}
	case token.CONTINUE:
		if s.Label != nil {
			if lb := b.labels[s.Label.Name]; lb != nil {
				target = lb.contB
			}
		} else {
			for t := b.targets; t != nil; t = t.prev {
				if t.continueB != nil {
					target = t.continueB
					break
				}
			}
		}
	case token.FALLTHROUGH:
		target = b.fallthroughB
	case token.GOTO:
		if s.Label != nil {
			target = b.labelBlock(s.Label.Name).gotoB
		}
	}
	if target != nil {
		b.jump(target)
	}
	b.current = b.newBlock("unreachable.branch")
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	head := b.current
	head.CondSplit = true
	then := b.newBlock("if.then")
	var els *Block
	if s.Else != nil {
		els = b.newBlock("if.else")
	}
	done := b.newBlock("if.done")
	if els != nil {
		head.Succs = []*Block{then, els}
	} else {
		head.Succs = []*Block{then, done}
	}
	b.current = then
	b.stmtList(s.Body.List)
	b.jump(done)
	if els != nil {
		b.current = els
		b.stmt(s.Else)
		b.jump(done)
	}
	b.current = done
}

func (b *builder) forStmt(s *ast.ForStmt, lb *lblock) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	done := b.newBlock("for.done")
	b.jump(head)
	b.current = head
	if s.Cond != nil {
		b.add(s.Cond)
		head.CondSplit = true
		head.Succs = []*Block{body, done}
	} else {
		head.Succs = []*Block{body}
	}
	cont := head
	if post != nil {
		cont = post
	}
	if lb != nil {
		lb.breakB, lb.contB = done, cont
	}
	b.targets = &targets{prev: b.targets, breakB: done, continueB: cont}
	b.current = body
	b.stmtList(s.Body.List)
	b.jump(cont)
	b.targets = b.targets.prev
	if post != nil {
		b.current = post
		b.stmt(s.Post)
		b.jump(head)
	}
	b.current = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, lb *lblock) {
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.jump(head)
	b.current = head
	b.add(s) // stands for the range operand and per-iteration key/value assignment
	// The zero-iteration edge (range over an empty — or nil — operand)
	// is always present: Succs[1].
	head.Succs = []*Block{body, done}
	if lb != nil {
		lb.breakB, lb.contB = done, head
	}
	b.targets = &targets{prev: b.targets, breakB: done, continueB: head}
	b.current = body
	b.stmtList(s.Body.List)
	b.jump(head)
	b.targets = b.targets.prev
	b.current = done
}

// switchBody lowers the clause list shared by switch and type switch.
// The head block (current) gets every case expression as a node; each
// clause gets its own body block; a missing default adds the no-match
// edge straight to the follow block.
func (b *builder) switchBody(body *ast.BlockStmt, allowFallthrough bool, lb *lblock) {
	head := b.current
	done := b.newBlock("switch.done")
	if lb != nil {
		lb.breakB = done
	}
	var bodies []*Block
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		for _, e := range cc.List {
			b.add(e) // evaluated in the head (simplification; see package doc)
		}
		bodies = append(bodies, b.newBlock(kind))
	}
	succs := make([]*Block, len(bodies), len(bodies)+1)
	copy(succs, bodies)
	if !hasDefault {
		succs = append(succs, done)
	}
	head.Succs = succs
	savedFall := b.fallthroughB
	b.targets = &targets{prev: b.targets, breakB: done}
	for i, c := range body.List {
		cc := c.(*ast.CaseClause)
		b.fallthroughB = nil
		if allowFallthrough && i+1 < len(bodies) {
			b.fallthroughB = bodies[i+1]
		}
		b.current = bodies[i]
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.targets = b.targets.prev
	b.fallthroughB = savedFall
	b.current = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, lb *lblock) {
	head := b.current
	done := b.newBlock("select.done")
	if lb != nil {
		lb.breakB = done
	}
	var bodies []*Block
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		kind := "select.case"
		if cc.Comm == nil {
			kind = "select.default"
		}
		bodies = append(bodies, b.newBlock(kind))
	}
	// A select proceeds only through one of its clauses; without a
	// default there is no fall-through edge (the statement blocks until
	// a case is ready).
	head.Succs = bodies
	b.targets = &targets{prev: b.targets, breakB: done}
	for i, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		b.current = bodies[i]
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.targets = b.targets.prev
	b.current = done
}

// Format renders the graph for debugging and tests: one paragraph per
// block with its kind, exit class, nodes, and successor indices.
func (c *CFG) Format(fset *token.FileSet) string {
	var buf bytes.Buffer
	for _, blk := range c.Blocks {
		fmt.Fprintf(&buf, ".%d %s", blk.Index, blk.Kind)
		switch blk.Exit {
		case ExitReturn:
			buf.WriteString(" [return]")
		case ExitPanic:
			buf.WriteString(" [panic]")
		case ExitFall:
			buf.WriteString(" [fall]")
		}
		buf.WriteByte('\n')
		for _, n := range blk.Nodes {
			fmt.Fprintf(&buf, "\t%s\n", nodeText(fset, n))
		}
		if len(blk.Succs) > 0 {
			buf.WriteString("\t→")
			for _, s := range blk.Succs {
				fmt.Fprintf(&buf, " %d", s.Index)
			}
			buf.WriteByte('\n')
		}
	}
	return buf.String()
}

func nodeText(fset *token.FileSet, n ast.Node) string {
	if r, ok := n.(*ast.RangeStmt); ok {
		// Printing the whole statement would drag the body in; the node
		// stands for the header only.
		return "range " + nodeText(fset, r.X)
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	return buf.String()
}
