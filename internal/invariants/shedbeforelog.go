package invariants

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ShedBeforeLog is the overload plane's durability-ordering rule as a
// lint: a request may only be shed — answered StatusOverloaded or
// StatusBusy without executing — BEFORE any log append on its behalf.
// Once the server appends (a receive record, a session end, any durable
// effect), recovery will replay that work, so telling the client
// "overloaded, nothing happened" would manufacture an execution the
// client was promised never happened — an exactly-once violation the
// runtime oracle can only catch if a storm happens to hit the window.
//
// Concretely: within one function, no call that emits a Busy/Overloaded
// outcome (Server.replyBusy, Server.replyOverloaded, Server.shedIfExpired,
// or any call whose arguments mention rpc.StatusBusy/rpc.StatusOverloaded)
// may be reachable AFTER a log append (wal.Log.Append, Server.appendRec)
// on ANY control-flow path. This is a may-analysis — the mirror image of
// flushed-by's must-analysis: one branch that appends before the shed is
// a finding even when the common path sheds first. A deferred append runs
// at function exit, after every shed in the body, and therefore taints
// nothing. Deliberate exceptions — the two reply-buffer Busy paths, where
// the request DID execute and Busy merely defers delivery to the
// duplicate resend — carry an //mspr:shedbeforelog <reason> directive.
var ShedBeforeLog = &Analyzer{
	Name: "shedbeforelog",
	Doc:  "forbid Busy/Overloaded shed replies reachable after a log append (path-sensitive)",
	Run:  runShedBeforeLog,
}

func runShedBeforeLog(ctx *Context) {
	for _, pkg := range ctx.Pkgs {
		for _, file := range pkg.Files {
			eachFunc(file, func(fs funcScope) {
				checkShedScope(ctx, pkg, fs)
			})
		}
	}
}

// isAppendCall matches the durable-effect producers: the raw WAL append
// and the server wrapper every logging site goes through.
func isAppendCall(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(pkg.Info, call)
	return isMethod(fn, "mspr/internal/wal", "Log", "Append") ||
		isMethod(fn, "mspr/internal/core", "Server", "appendRec")
}

// isShedCall matches the overload-outcome emitters: the server's shed
// helpers, and any call whose ARGUMENTS reference the StatusBusy or
// StatusOverloaded constants (a reply literal built inline). Comparisons
// against the constants (`rep.Status == rpc.StatusBusy`) are reads of an
// outcome, not emissions, and do not match.
func isShedCall(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(pkg.Info, call)
	if isMethod(fn, "mspr/internal/core", "Server", "replyBusy") ||
		isMethod(fn, "mspr/internal/core", "Server", "replyOverloaded") ||
		isMethod(fn, "mspr/internal/core", "Server", "shedIfExpired") {
		return true
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || found {
				return !found
			}
			if c, ok := pkg.Info.Uses[id].(*types.Const); ok && isShedStatusConst(c) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isShedStatusConst(c *types.Const) bool {
	if c.Pkg() == nil || c.Pkg().Path() != "mspr/internal/rpc" {
		return false
	}
	return c.Name() == "StatusBusy" || c.Name() == "StatusOverloaded"
}

// checkShedScope solves may-have-appended over one function body and
// reports shed calls reachable on an appended path.
func checkShedScope(ctx *Context, pkg *Package, fs funcScope) {
	// Cheap pre-scan: a finding needs both an append and a shed in the
	// same scope, and most functions have neither.
	appends, sheds := false, false
	inspectNoFuncLit(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if isAppendCall(pkg, call) {
				appends = true
			}
			if isShedCall(pkg, call) {
				sheds = true
			}
		}
		return !(appends && sheds)
	})
	if !appends || !sheds {
		return
	}

	g := buildCFG(fs.body)
	spec := flowSpec[bool]{
		entry: false,
		transfer: func(appended bool, n ast.Node) bool {
			if appended {
				return true
			}
			// A defer'd append runs at exit, after every shed in the body.
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				return appended
			}
			inspectNode(n, func(sub ast.Node) bool {
				if call, ok := sub.(*ast.CallExpr); ok && isAppendCall(pkg, call) {
					appended = true
				}
				return true
			})
			return appended
		},
		merge: func(a, b bool) bool { return a || b },
		equal: func(a, b bool) bool { return a == b },
	}
	in := solve(g, spec)

	eachNodeFact(g, spec, in, func(appended bool, n ast.Node) {
		if !appended {
			return
		}
		inspectNode(n, func(sub ast.Node) bool {
			call, ok := sub.(*ast.CallExpr)
			if !ok || !isShedCall(pkg, call) {
				return true
			}
			name := "shed reply"
			if fn := calleeFunc(pkg.Info, call); fn != nil {
				name = fn.Name()
			}
			ctx.report(pkg, call.Pos(),
				"%s follows a log append on some path%s: a shed must precede any durable effect — after the append, recovery replays work the client was told never happened; move the shed before the append or annotate //mspr:shedbeforelog <reason>",
				name, appendWitness(ctx.Fset, pkg, g, in, call))
			return true
		})
	})
}

// appendWitness names one append site that may precede the offending
// shed: the nearest append found walking predecessor blocks back from
// the shed (or earlier in the shed's own block). Best-effort — an empty
// string when the graph walk finds nothing nameable.
func appendWitness(fset *token.FileSet, pkg *Package, g *cfg, in map[*cfgBlock]bool, shed *ast.CallExpr) string {
	containsShed := func(n ast.Node) bool {
		found := false
		inspectNode(n, func(sub ast.Node) bool {
			if sub == shed {
				found = true
			}
			return !found
		})
		return found
	}
	lastAppend := func(nodes []ast.Node) *ast.CallExpr {
		var last *ast.CallExpr
		for _, n := range nodes {
			inspectNode(n, func(sub ast.Node) bool {
				if call, ok := sub.(*ast.CallExpr); ok && isAppendCall(pkg, call) {
					last = call
				}
				return true
			})
		}
		return last
	}

	var target *cfgBlock
	shedIdx := -1
	for _, blk := range g.blocks {
		for i, n := range blk.nodes {
			if containsShed(n) {
				target, shedIdx = blk, i
				break
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		return ""
	}
	// An append earlier in the shed's own block is the closest witness.
	if call := lastAppend(target.nodes[:shedIdx]); call != nil {
		return fmt.Sprintf(" (append at line %d)", fset.Position(call.Pos()).Line)
	}
	// Otherwise BFS backwards over reachable predecessors.
	preds := make(map[*cfgBlock][]*cfgBlock)
	for _, blk := range g.blocks {
		if _, ok := in[blk]; !ok {
			continue // unreachable
		}
		for _, e := range blk.succs {
			preds[e.to] = append(preds[e.to], blk)
		}
	}
	queue := []*cfgBlock{target}
	seen := map[*cfgBlock]bool{target: true}
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		for _, p := range preds[blk] {
			if seen[p] {
				continue
			}
			seen[p] = true
			if call := lastAppend(p.nodes); call != nil {
				return fmt.Sprintf(" (append at line %d)", fset.Position(call.Pos()).Line)
			}
			queue = append(queue, p)
		}
	}
	return ""
}
