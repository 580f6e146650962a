package core

import (
	"go/ast"
	"go/token"
	"testing"

	"mspr/internal/invariants"
)

// TestOneWayToAskAndWait pins the structure "ask a peer and wait for the
// answer" was reduced to, in the style of TestOneAbortPath: one retransmit
// loop with one timer and one reply registration in the control plane, one
// fan-out over a dependency vector, one reply router (rpc.Router) instead
// of per-purpose pending tables, one request driver under every client
// session, and for requests one wait, rpc.Exchange, entered only from that
// driver and from an MSP's outgoing call. Each used to exist two to five
// times, and the copies drifted: the MSP-to-MSP wait never learned
// StatusOverloaded and handed it to the handler as an answer.
func TestOneWayToAskAndWait(t *testing.T) {
	fset, files, err := invariants.ParseTree(".", invariants.NonTest)
	if err != nil {
		t.Fatal(err)
	}
	sel, call, count := invariants.Sel, invariants.Call, invariants.Count
	isGo := func(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }
	for name, f := range files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && (ts.Name.Name == "pendingCtl" || ts.Name.Name == "pendingCalls") {
						t.Errorf("%s: type %s is back: reply routing belongs to rpc.Router", name, ts.Name.Name)
					}
				}
			}
		}
	}
	timers := map[string]int{}    // function → time.NewTimer and simtime.NewTimer calls
	registers := map[string]int{} // function → s.ctl.Register calls
	loopSends := map[string]int{} // ctlplane.go: function → Send calls inside a for loop
	fanOuts := map[string]int{}   // function → goroutines started while ranging over a dv.Vector
	waits := map[string]int{}     // function → rpc.Exchange and rpc.Call calls
	newTimer := func(n ast.Node) bool { return call("time", "NewTimer")(n) || call("simtime", "NewTimer")(n) }
	wait := func(n ast.Node) bool { return call("rpc", "Exchange")(n) || call("rpc", "Call")(n) }
	var ctlCall *ast.FuncDecl
	invariants.EachFuncDecl(files, func(name string, fn *ast.FuncDecl) {
		inCtlplane := name == "ctlplane.go"
		add := func(m map[string]int, n int) {
			if n > 0 {
				m[fn.Name.Name] += n
			}
		}
		switch fn.Name.Name {
		case "dispatch":
			t.Errorf("%s: a private dispatch loop is back: endpoints are served by rpc.Serve", name)
		case "ctlCall":
			ctlCall = fn
		}
		add(waits, count(fn.Body, wait))
		add(registers, count(fn.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			return ok && sel("", "Register")(c.Fun) && sel("s", "ctl")(c.Fun.(*ast.SelectorExpr).X)
		}))
		add(timers, count(fn.Body, newTimer))
		// Parameters and locals declared as dv.Vector, and locals
		// borrowed from a .vec field.
		vectors := map[string]bool{}
		for _, p := range fn.Type.Params.List {
			if sel("dv", "Vector")(p.Type) {
				for _, id := range p.Names {
					vectors[id.Name] = true
				}
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == 1 && len(x.Rhs) == 1 && sel("", "vec")(x.Rhs[0]) {
					if id, ok := x.Lhs[0].(*ast.Ident); ok {
						vectors[id.Name] = true
					}
				}
			case *ast.ForStmt:
				if inCtlplane {
					add(loopSends, count(x.Body, call("", "Send")))
				}
			case *ast.RangeStmt:
				id, isIdent := x.X.(*ast.Ident)
				if (isIdent && vectors[id.Name] || sel("", "vec")(x.X)) && count(x.Body, isGo) > 0 {
					fanOuts[fn.Name.Name]++
				}
			}
			return true
		})
	})
	one := func(what string, got map[string]int, where string) {
		t.Helper()
		if len(got) != 1 || got[where] != 1 {
			t.Errorf("%s = %v, want exactly one, in %s", what, got, where)
		}
	}
	one("NewTimer sites", timers, "ctlCall")
	one("s.ctl.Register sites", registers, "ctlCall")
	one("sends inside a loop in ctlplane.go", loopSends, "ctlCall")
	one("goroutine fan-outs over a dv.Vector", fanOuts, "flushDV")
	if len(waits) != 2 || waits["drive"] != 1 || waits["liveCall"] != 1 {
		t.Errorf("rpc.Exchange and rpc.Call sites = %v, want one in drive and one in liveCall", waits)
	}

	// The StateServer baseline's client waits through rpc.Call too: no
	// timer and no select of its own.
	_, bfiles, err := invariants.ParseTree("../baselines", invariants.NonTest)
	if err != nil {
		t.Fatal(err)
	}
	isSelect := func(n ast.Node) bool { _, ok := n.(*ast.SelectStmt); return ok }
	for name, f := range bfiles {
		if n := count(f, newTimer) + count(f, isSelect); n > 0 {
			t.Errorf("baselines/%s: %d timers or selects; its round trip waits through rpc.Call", name, n)
		}
	}

	// Timer hygiene in the one loop: the timer is stopped by a statement of
	// the same block as the one that arms it, and nothing between the two
	// leaves the block — so no path out of a wait leaves its timer running.
	if ctlCall == nil {
		t.Fatal("no ctlCall")
	}
	leaves := func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.BranchStmt:
			return b.Label != nil || b.Tok == token.GOTO
		}
		return false
	}
	armed := false
	ast.Inspect(ctlCall.Body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		arm, stop := -1, -1
		for i, st := range blk.List {
			if as, ok := st.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && call("time", "NewTimer")(as.Rhs[0]) {
				arm = i
			}
			if es, ok := st.(*ast.ExprStmt); ok && arm >= 0 && stop < 0 && call("timer", "Stop")(es.X) {
				stop = i
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
			if count(st, leaves) > 0 {
				t.Errorf("ctlCall: %s leaves the wait before timer.Stop()", fset.Position(st.Pos()))
			}
		}
		return true
	})
	if !armed {
		t.Error("ctlCall arms no timer")
	}
}
