package invariants

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// FlushBeforeSend is the paper's pessimism-at-the-boundary rule (§3.1,
// Fig. 7) as a lint: a message that leaves the process — a reply toward
// a client or a cross-domain message — must not be sent before the log
// state it depends on is durable. Concretely, EVERY control-flow path
// reaching a call that emits a message (simnet.Endpoint.Send,
// core.Server.sendReply) must pass through a flush — wal.Log.Flush, or
// one of core's three: Server.flushTo (this MSP's own log), Server.flushDV
// (the distributed flush a dependency vector dictates) and
// Server.flushSessionDV (flushDV over a session's vector and state
// number) — or the call must carry an //mspr:flushed-by <func> directive
// naming the wrapper that performs (or deliberately omits, "none
// <reason>") the flush.
//
// The check is one forward dataflow solve per function: the fact is "a
// flush has run", merged with AND, so a send is safe only if EVERY
// incoming path flushed. A branch that skips the flush is a finding, and
// the finding names the unflushed path. A deferred flush runs at exit,
// after every send in the body, and never counts. The lexical check
// lexicallyDominated, kept as the test reference, blesses
// `if cond { flush() }; send()`. Function literals are separate scopes:
// a flush before `go func(){ send }()` does not dominate the send inside
// the goroutine.
var FlushBeforeSend = &Analyzer{
	Name: "flushed-by",
	Doc:  "require a flush on every path to a message emission (path-sensitive)",
	Run:  func(ctx *Context) { ctx.eachScope(checkFlushBeforeSend) },
}

func isFlushCall(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(pkg.Info, call)
	return isMethod(fn, "mspr/internal/wal", "Log", "Flush") ||
		isMethod(fn, "mspr/internal/core", "Server", "flushDV") ||
		isMethod(fn, "mspr/internal/core", "Server", "flushSessionDV") ||
		isMethod(fn, "mspr/internal/core", "Server", "flushTo")
}

func isEmitCall(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(pkg.Info, call)
	return isMethod(fn, "mspr/internal/simnet", "Endpoint", "Send") ||
		isMethod(fn, "mspr/internal/core", "Server", "sendReply")
}

func checkFlushBeforeSend(ctx *Context, pkg *Package, fs funcScope) {
	if pkg.ImportPath == "mspr/internal/simnet" {
		return // the transport itself: Send's definition, loopbacks
	}
	// Cheap pre-scan: most functions send nothing.
	sends := false
	inspectNoFuncLit(fs.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		sends = sends || ok && isEmitCall(pkg, call)
		return !sends
	})
	if !sends {
		return
	}

	g := buildCFG(fs.body)
	spec := flowSpec[bool]{
		transfer: func(flushed bool, n ast.Node) bool {
			if _, isDefer := n.(*ast.DeferStmt); !flushed && !isDefer {
				inspectNode(n, func(sub ast.Node) bool {
					call, ok := sub.(*ast.CallExpr)
					flushed = flushed || ok && isFlushCall(pkg, call)
					return !flushed
				})
			}
			return flushed
		},
		merge: func(a, b bool) bool { return a && b },
		equal: func(a, b bool) bool { return a == b },
	}
	in := solve(g, spec)

	eachNodeFact(g, spec, in, func(flushed bool, n ast.Node) {
		if flushed {
			return
		}
		// A deferred send is still checked, at the defer's position: it
		// runs at exit, so what holds at the defer statement is the
		// conservative requirement.
		inspectNode(n, func(sub ast.Node) bool {
			call, ok := sub.(*ast.CallExpr)
			if !ok || !isEmitCall(pkg, call) {
				return true
			}
			name := "Send"
			if fn := calleeFunc(pkg.Info, call); fn != nil {
				name = fn.Name()
			}
			ctx.report(pkg, call.Pos(), "%s reachable without a flush%s: flush-before-send pessimism (paper §3.1) requires a flush on every path, or //mspr:flushed-by <func>",
				name, unflushedPath(ctx.Fset, g, in, call))
			return true
		})
	})
}

// unflushedPath renders the witness of a finding at call: the shortest
// path from the entry to the send through blocks the solve left
// unflushed, by the first line of each; "" when the walk finds nothing
// nameable.
func unflushedPath(fset *token.FileSet, g *cfg, in map[*cfgBlock]bool, call *ast.CallExpr) string {
	target := blockOf(g, call)
	if target == nil {
		return ""
	}
	// Breadth-first from the entry through unflushed blocks: each block's
	// BFS parent leads back from the target along a shortest such path.
	entry := g.entry()
	prev := make(map[*cfgBlock]*cfgBlock)
	seen := map[*cfgBlock]bool{entry: true}
	for queue := []*cfgBlock{entry}; len(queue) > 0; queue = queue[1:] {
		for _, e := range queue[0].succs {
			if flushed, ok := in[e.to]; ok && !flushed && !seen[e.to] {
				seen[e.to], prev[e.to] = true, queue[0]
				queue = append(queue, e.to)
			}
		}
	}
	if !seen[target] {
		return ""
	}
	line := func(n ast.Node) string { return fmt.Sprint(fset.Position(n.Pos()).Line) }
	var lines []string
	for blk := target; blk != nil; blk = prev[blk] {
		if len(blk.nodes) > 0 && (len(lines) == 0 || lines[0] != line(blk.nodes[0])) {
			lines = append([]string{line(blk.nodes[0])}, lines...)
		}
	}
	if len(lines) == 0 {
		return ""
	}
	return fmt.Sprintf(" (unflushed path: line %s)", strings.Join(lines, " -> "))
}

// blockOf finds the block holding node.
func blockOf(g *cfg, node ast.Node) *cfgBlock {
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			found := false
			inspectNode(n, func(sub ast.Node) bool {
				found = found || sub == node
				return !found
			})
			if found {
				return blk
			}
		}
	}
	return nil
}

// lexicallyDominated is PR 3's check, kept as the reference the
// path-sensitive pass is tested against: it reports whether ANY flush
// appears earlier in the source than the emit — blind to branches that
// skip the flush (see TestLexicalDominanceMissesBranch).
func lexicallyDominated(pkg *Package, body *ast.BlockStmt, emit *ast.CallExpr) bool {
	dominated := false
	inspectNoFuncLit(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isFlushCall(pkg, call) && call.Pos() < emit.Pos() {
			dominated = true
		}
		return !dominated
	})
	return dominated
}
