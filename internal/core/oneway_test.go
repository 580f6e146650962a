package core

import (
	"go/ast"
	"testing"

	"mspr/internal/invariants"
)

// TestOneWayToAskAndWait pins the structure "ask a peer and wait for the
// answer" was reduced to, in the style of TestOneAbortPath: one wait,
// rpc.Exchange, entered only from the request driver under every client
// session, an MSP's outgoing call and its control calls; one reply
// registration in the control plane; one fan-out over a dependency vector;
// one reply router (rpc.Router) instead of per-purpose pending tables; and
// one breaker type, rpc.Breaker, for whether a peer answers. Each used to
// exist two to five times, and the copies drifted: the MSP-to-MSP wait
// never learned StatusOverloaded and handed it to the handler as an
// answer. Exchange owns every timer, so none is armed in internal/core.
func TestOneWayToAskAndWait(t *testing.T) {
	_, files, err := invariants.ParseTree(".", invariants.NonTest)
	if err != nil {
		t.Fatal(err)
	}
	sel, call, count := invariants.Sel, invariants.Call, invariants.Count
	isGo := func(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }
	gone := map[string]string{
		"pendingCtl":   "reply routing belongs to rpc.Router",
		"pendingCalls": "reply routing belongs to rpc.Router",
		"peerHealth":   "a peer's health is its rpc.Breaker",
		"ctlCache":     "control operations are idempotent: a retransmission is served again",
		"ctlKey":       "control operations are idempotent: a retransmission is served again",
	}
	for name, f := range files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && gone[ts.Name.Name] != "" {
						t.Errorf("%s: type %s is back: %s", name, ts.Name.Name, gone[ts.Name.Name])
					}
				}
			}
		}
	}
	timers := map[string]int{}    // function → time.NewTimer, time.After and simtime.NewTimer calls
	registers := map[string]int{} // function → s.ctl.Register calls
	loopSends := map[string]int{} // ctlplane.go: function → Send calls inside a for loop
	fanOuts := map[string]int{}   // function → goroutines started while ranging over a dv.Vector
	waits := map[string]int{}     // function → rpc.Exchange and rpc.Call calls
	timer := func(n ast.Node) bool {
		return call("time", "NewTimer")(n) || call("time", "After")(n) || call("simtime", "NewTimer")(n)
	}
	wait := func(n ast.Node) bool { return call("rpc", "Exchange")(n) || call("rpc", "Call")(n) }
	invariants.EachFuncDecl(files, func(name string, fn *ast.FuncDecl) {
		inCtlplane := name == "ctlplane.go"
		add := func(m map[string]int, n int) {
			if n > 0 {
				m[fn.Name.Name] += n
			}
		}
		if fn.Name.Name == "dispatch" {
			t.Errorf("%s: a private dispatch loop is back: endpoints are served by rpc.Serve", name)
		}
		add(waits, count(fn.Body, wait))
		add(registers, count(fn.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			return ok && sel("", "Register")(c.Fun) && sel("s", "ctl")(c.Fun.(*ast.SelectorExpr).X)
		}))
		add(timers, count(fn.Body, timer))
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
	if len(timers) > 0 {
		t.Errorf("timers armed in internal/core: %v; every wait for an answer is rpc.Exchange's", timers)
	}
	if len(loopSends) > 0 {
		t.Errorf("sends inside a loop in ctlplane.go: %v; a control call resends through rpc.Exchange", loopSends)
	}
	one("s.ctl.Register sites", registers, "ctlCall")
	one("goroutine fan-outs over a dv.Vector", fanOuts, "flushDV")
	if len(waits) != 3 || waits["drive"] != 1 || waits["liveCall"] != 1 || waits["ctlCall"] != 1 {
		t.Errorf("rpc.Exchange and rpc.Call sites = %v, want one each in drive, liveCall and ctlCall", waits)
	}

	// The StateServer baseline's client waits through rpc.Call too: no
	// timer and no select of its own.
	_, bfiles, err := invariants.ParseTree("../baselines", invariants.NonTest)
	if err != nil {
		t.Fatal(err)
	}
	isSelect := func(n ast.Node) bool { _, ok := n.(*ast.SelectStmt); return ok }
	for name, f := range bfiles {
		if n := count(f, timer) + count(f, isSelect); n > 0 {
			t.Errorf("baselines/%s: %d timers or selects; its round trip waits through rpc.Call", name, n)
		}
	}
}
