package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildCFG parses a function body and lowers it, using the syntactic
// terminal-call predicate (tests have no type information).
func buildCFG(t *testing.T, body string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	file, err := parser.ParseFile(fset, "cfg_test.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	fn := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	return NewCFG(fn.Body, nil), fset
}

// reachable computes which blocks are reachable from the entry block.
func reachable(c *CFG) []bool {
	seen := make([]bool, len(c.Blocks))
	var stack []*Block
	if len(c.Blocks) > 0 {
		seen[0] = true
		stack = append(stack, c.Blocks[0])
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// hasCycle reports whether any reachable block can reach itself — i.e.
// the function contains a loop (for, range, or a backward goto).
func hasCycle(c *CFG) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]uint8, len(c.Blocks))
	var visit func(b *Block) bool
	visit = func(b *Block) bool {
		color[b.Index] = grey
		for _, s := range b.Succs {
			switch color[s.Index] {
			case grey:
				return true
			case white:
				if visit(s) {
					return true
				}
			}
		}
		color[b.Index] = black
		return false
	}
	return len(c.Blocks) > 0 && visit(c.Blocks[0])
}

func TestCFGShapes(t *testing.T) {
	tests := []struct {
		name string
		body string
		// want asserts properties of the built graph.
		want func(t *testing.T, c *CFG, fset *token.FileSet)
	}{
		{
			name: "goto over statement",
			body: `
x := 1
if x > 0 {
	goto out
}
x = 2
out:
x = 3`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				// The label block must be reachable from both the goto
				// and the fallthrough path, and x = 2 must sit on only
				// one of them.
				label := findBlock(t, c, "label.out")
				if preds(c, label) != 2 {
					t.Errorf("label.out has %d predecessors, want 2\n%s", preds(c, label), c.Format(fset))
				}
				if hasCycle(c) {
					t.Errorf("forward goto reported as cycle\n%s", c.Format(fset))
				}
			},
		},
		{
			name: "backward goto is a cycle",
			body: `
retry:
x := 1
if x > 0 {
	goto retry
}`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				if !hasCycle(c) {
					t.Errorf("backward goto not detected as cycle\n%s", c.Format(fset))
				}
			},
		},
		{
			name: "labeled break and continue",
			body: `
outer:
for i := 0; i < 10; i++ {
	for j := 0; j < 10; j++ {
		if j == 1 {
			continue outer
		}
		if j == 2 {
			break outer
		}
	}
}`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				// continue outer must edge to the OUTER post block;
				// break outer to the OUTER done block. We verify by
				// reachability: the outer post block must have ≥2
				// predecessors (inner-loop exit path and the labeled
				// continue), and outer done ≥2 (cond-false and the
				// labeled break).
				posts := findBlocks(c, "for.post")
				dones := findBlocks(c, "for.done")
				if len(posts) != 2 || len(dones) != 2 {
					t.Fatalf("want 2 for.post and 2 for.done blocks, got %d and %d\n%s", len(posts), len(dones), c.Format(fset))
				}
				// Both loops' blocks are built outer-first.
				outerPost, outerDone := posts[0], dones[0]
				if preds(c, outerPost) < 2 {
					t.Errorf("labeled continue does not reach outer post\n%s", c.Format(fset))
				}
				if preds(c, outerDone) < 2 {
					t.Errorf("labeled break does not reach outer done\n%s", c.Format(fset))
				}
			},
		},
		{
			name: "select with default does not block",
			body: `
ch := make(chan int)
select {
case v := <-ch:
	_ = v
default:
}
x := 1
_ = x`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				head := entryOf(t, c, "select.case")
				if len(head.Succs) != 2 {
					t.Fatalf("select head has %d succs, want 2 (case, default)\n%s", len(head.Succs), c.Format(fset))
				}
				if head.Succs[0].Kind != "select.case" || head.Succs[1].Kind != "select.default" {
					t.Errorf("select head succs = %s, %s\n%s", head.Succs[0].Kind, head.Succs[1].Kind, c.Format(fset))
				}
				// The comm statement of a case executes inside the
				// clause block, not the head.
				if n := len(head.Succs[0].Nodes); n == 0 {
					t.Errorf("select case clause has no nodes (comm stmt missing)\n%s", c.Format(fset))
				}
			},
		},
		{
			name: "select without default blocks",
			body: `
ch := make(chan int)
select {
case <-ch:
}`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				head := entryOf(t, c, "select.case")
				if len(head.Succs) != 1 {
					t.Errorf("defaultless select head has %d succs, want 1\n%s", len(head.Succs), c.Format(fset))
				}
			},
		},
		{
			name: "defer survives panic exit",
			body: `
mu := 0
defer func() { _ = mu }()
if mu == 0 {
	panic("boom")
}
mu = 2`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				var panics, falls int
				reach := reachable(c)
				for _, b := range c.Blocks {
					if !reach[b.Index] {
						continue
					}
					switch b.Exit {
					case ExitPanic:
						panics++
						// The defer statement is a plain node earlier
						// in the graph; the panic block itself holds
						// the call.
						if len(b.Nodes) == 0 {
							t.Errorf("panic block has no nodes\n%s", c.Format(fset))
						}
					case ExitFall:
						falls++
					}
				}
				if panics != 1 || falls != 1 {
					t.Errorf("got %d panic exits, %d fall exits; want 1 and 1\n%s", panics, falls, c.Format(fset))
				}
			},
		},
		{
			name: "range over possibly-nil slice keeps zero-iteration edge",
			body: `
var xs []int
for _, x := range xs {
	_ = x
}
y := 1
_ = y`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				head := findBlock(t, c, "range.head")
				if len(head.Succs) != 2 {
					t.Fatalf("range head has %d succs, want 2 (body, done)\n%s", len(head.Succs), c.Format(fset))
				}
				if head.Succs[0].Kind != "range.body" || head.Succs[1].Kind != "range.done" {
					t.Errorf("range head succs = %s, %s\n%s", head.Succs[0].Kind, head.Succs[1].Kind, c.Format(fset))
				}
				if !hasCycle(c) {
					t.Errorf("range loop not a cycle\n%s", c.Format(fset))
				}
			},
		},
		{
			name: "fallthrough chains case bodies",
			body: `
x := 1
switch x {
case 1:
	x = 10
	fallthrough
case 2:
	x = 20
default:
	x = 30
}
_ = x`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				cases := findBlocks(c, "switch.case")
				if len(cases) != 2 {
					t.Fatalf("want 2 switch.case blocks, got %d\n%s", len(cases), c.Format(fset))
				}
				// case 1 falls through: its only successor is case 2's
				// body, and case 2 therefore has two predecessors (head
				// dispatch + fallthrough).
				if len(cases[0].Succs) != 1 || cases[0].Succs[0] != cases[1] {
					t.Errorf("fallthrough edge missing from case 1 to case 2\n%s", c.Format(fset))
				}
				if preds(c, cases[1]) != 2 {
					t.Errorf("case 2 has %d predecessors, want 2\n%s", preds(c, cases[1]), c.Format(fset))
				}
				// With a default clause the head must NOT edge straight
				// to done.
				head := entryOf(t, c, "switch.case")
				for _, s := range head.Succs {
					if s.Kind == "switch.done" {
						t.Errorf("switch with default has head→done edge\n%s", c.Format(fset))
					}
				}
			},
		},
		{
			name: "if condition is a CondSplit with true edge first",
			body: `
x := 1
if x > 0 {
	x = 2
} else {
	x = 3
}
_ = x`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				var cond *Block
				for _, b := range c.Blocks {
					if b.CondSplit {
						cond = b
						break
					}
				}
				if cond == nil {
					t.Fatalf("no CondSplit block\n%s", c.Format(fset))
				}
				e, taken, ok := CondEdge(cond, cond.Succs[0])
				if !ok || !taken || e == nil {
					t.Errorf("CondEdge(head, then) = (%v, %v, %v), want (expr, true, true)", e, taken, ok)
				}
				if _, taken, _ := CondEdge(cond, cond.Succs[1]); taken {
					t.Errorf("CondEdge(head, else) reports taken=true")
				}
				if cond.Succs[0].Kind != "if.then" || cond.Succs[1].Kind != "if.else" {
					t.Errorf("cond succs = %s, %s\n%s", cond.Succs[0].Kind, cond.Succs[1].Kind, c.Format(fset))
				}
			},
		},
		{
			name: "terminal selector call ends the path",
			body: `
x := 1
if x > 0 {
	os.Exit(1)
}
_ = x`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				var found bool
				for _, b := range c.Blocks {
					if b.Exit == ExitPanic {
						found = true
					}
				}
				if !found {
					t.Errorf("os.Exit path not classified ExitPanic\n%s", c.Format(fset))
				}
			},
		},
		{
			name: "return splits the block",
			body: `
x := 1
if x > 0 {
	return
}
x = 2`,
			want: func(t *testing.T, c *CFG, fset *token.FileSet) {
				var returns int
				reach := reachable(c)
				for _, b := range c.Blocks {
					if reach[b.Index] && b.Exit == ExitReturn {
						returns++
					}
				}
				if returns != 1 {
					t.Errorf("got %d reachable return exits, want 1\n%s", returns, c.Format(fset))
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, fset := buildCFG(t, tt.body)
			tt.want(t, c, fset)
		})
	}
}

// findBlock returns the unique reachable block of the given kind.
func findBlock(t *testing.T, c *CFG, kind string) *Block {
	t.Helper()
	bs := findBlocks(c, kind)
	if len(bs) != 1 {
		t.Fatalf("want exactly one %q block, got %d", kind, len(bs))
	}
	return bs[0]
}

func findBlocks(c *CFG, kind string) []*Block {
	reach := reachable(c)
	var out []*Block
	for _, b := range c.Blocks {
		if reach[b.Index] && b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

// entryOf returns the reachable block that dispatches to the first
// block of the given kind (i.e. its predecessor acting as head).
func entryOf(t *testing.T, c *CFG, kind string) *Block {
	t.Helper()
	target := findBlocks(c, kind)
	if len(target) == 0 {
		t.Fatalf("no %q block", kind)
	}
	reach := reachable(c)
	for _, b := range c.Blocks {
		if !reach[b.Index] {
			continue
		}
		for _, s := range b.Succs {
			if s == target[0] {
				return b
			}
		}
	}
	t.Fatalf("no predecessor of %q block", kind)
	return nil
}

func preds(c *CFG, target *Block) int {
	reach := reachable(c)
	n := 0
	for _, b := range c.Blocks {
		if !reach[b.Index] {
			continue
		}
		for _, s := range b.Succs {
			if s == target {
				n++
			}
		}
	}
	return n
}

func TestCFGFormatSmoke(t *testing.T) {
	c, fset := buildCFG(t, `
for i := range 3 {
	_ = i
}`)
	out := c.Format(fset)
	if !strings.Contains(out, "range.head") || !strings.Contains(out, "range 3") {
		t.Errorf("Format output missing range header:\n%s", out)
	}
}
