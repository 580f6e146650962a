package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// isSel reports whether e is the selector expression x.sel.
func isSel(e ast.Expr, x, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == x
}

// containsNode reports whether match holds for any node under root.
func containsNode(root ast.Node, match func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n != nil && match(n) {
			found = true
		}
		return !found
	})
	return found
}

// TestOneWayToAskAndWait pins the structure "ask a peer and wait for the
// answer" was reduced to, in the style of TestOneAbortPath: one retransmit
// loop with one timer and one reply registration in the control plane, one
// fan-out over a dependency vector, one reply router (rpc.Router) instead
// of per-purpose pending tables, and one request driver under every client
// session. Each used to exist two to five times, and the copies drifted.
func TestOneWayToAskAndWait(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	timers := map[string]int{}    // ctlplane.go: function → time.NewTimer calls
	registers := map[string]int{} // ctlplane.go: function → s.ctl.Register calls
	loopSends := map[string]int{} // ctlplane.go: function → Send calls inside a for loop
	fanOuts := map[string]int{}   // function → goroutines started while ranging over a dv.Vector
	drivers := map[string]int{}   // function → rpc.Call calls
	for name, f := range pkgs["core"].Files {
		inCtlplane := strings.HasSuffix(name, "ctlplane.go")
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && (ts.Name.Name == "pendingCtl" || ts.Name.Name == "pendingCalls") {
						t.Errorf("type %s is back: reply routing belongs to rpc.Router", ts.Name.Name)
					}
				}
			}
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "dispatch" {
				t.Errorf("%s: a private dispatch loop is back: endpoints are served by rpc.Serve", name)
			}
			// Parameters and locals declared as dv.Vector, and locals
			// borrowed from a .vec field.
			vectors := map[string]bool{}
			for _, p := range fn.Type.Params.List {
				if isSel(p.Type, "dv", "Vector") {
					for _, id := range p.Names {
						vectors[id.Name] = true
					}
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
						if sel, ok := x.Rhs[0].(*ast.SelectorExpr); ok && sel.Sel.Name == "vec" {
							if id, ok := x.Lhs[0].(*ast.Ident); ok {
								vectors[id.Name] = true
							}
						}
					}
				case *ast.CallExpr:
					if isSel(x.Fun, "time", "NewTimer") && inCtlplane {
						timers[fn.Name.Name]++
					}
					if isSel(x.Fun, "rpc", "Call") {
						drivers[fn.Name.Name]++
					}
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Register" && isSel(sel.X, "s", "ctl") {
						registers[fn.Name.Name]++
					}
				case *ast.ForStmt:
					if inCtlplane {
						ast.Inspect(x.Body, func(m ast.Node) bool {
							if c, ok := m.(*ast.CallExpr); ok {
								if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Send" {
									loopSends[fn.Name.Name]++
								}
							}
							return true
						})
					}
				case *ast.RangeStmt:
					id, isIdent := x.X.(*ast.Ident)
					sel, isSelector := x.X.(*ast.SelectorExpr)
					overVector := (isIdent && vectors[id.Name]) || (isSelector && sel.Sel.Name == "vec")
					if overVector && containsNode(x.Body, func(m ast.Node) bool { _, ok := m.(*ast.GoStmt); return ok }) {
						fanOuts[fn.Name.Name]++
					}
				}
				return true
			})
		}
	}
	one := func(what string, got map[string]int, where string) {
		t.Helper()
		if len(got) != 1 || got[where] != 1 {
			t.Errorf("%s = %v, want exactly one, in %s", what, got, where)
		}
	}
	one("time.NewTimer sites in ctlplane.go", timers, "ctlCall")
	one("s.ctl.Register sites in ctlplane.go", registers, "ctlCall")
	one("sends inside a loop in ctlplane.go", loopSends, "ctlCall")
	one("goroutine fan-outs over a dv.Vector", fanOuts, "flushDV")
	one("rpc.Call sites", drivers, "drive")

	// Timer hygiene in the one loop: the timer is stopped by a statement of
	// the same block as the one that arms it, and nothing between the two
	// leaves the block — so no path out of a wait leaves its timer running.
	ctlCall := findFunc(pkgs["core"], "ctlCall")
	if ctlCall == nil {
		t.Fatal("no ctlCall")
	}
	armed := false
	ast.Inspect(ctlCall.Body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		arm, stop := -1, -1
		for i, st := range blk.List {
			if as, ok := st.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if c, ok := as.Rhs[0].(*ast.CallExpr); ok && isSel(c.Fun, "time", "NewTimer") {
					arm = i
				}
			}
			if es, ok := st.(*ast.ExprStmt); ok && arm >= 0 && stop < 0 {
				if c, ok := es.X.(*ast.CallExpr); ok && isSel(c.Fun, "timer", "Stop") {
					stop = i
				}
			}
		}
		if arm < 0 {
			return true
		}
		armed = true
		if stop < 0 {
			t.Errorf("ctlCall: no timer.Stop() in the block that arms the timer (%s)", fset.Position(blk.List[arm].Pos()))
			return true
		}
		for _, st := range blk.List[arm+1 : stop] {
			if containsNode(st, func(m ast.Node) bool {
				switch b := m.(type) {
				case *ast.ReturnStmt:
					return true
				case *ast.BranchStmt:
					return b.Label != nil || b.Tok == token.GOTO
				}
				return false
			}) {
				t.Errorf("ctlCall: %s leaves the wait before timer.Stop()", fset.Position(st.Pos()))
			}
		}
		return true
	})
	if !armed {
		t.Error("ctlCall arms no timer")
	}
}

func findFunc(pkg *ast.Package, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
				return fn
			}
		}
	}
	return nil
}
