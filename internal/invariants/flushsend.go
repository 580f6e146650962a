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
// PR 3's pass checked this lexically: any flush EARLIER IN THE SOURCE
// blessed the send, so `if cond { flush() }; send()` passed even though
// the cond=false path sends unflushed state. This version runs a
// must-flush forward dataflow over the function's CFG (merge = AND at
// joins), so a branch that skips the flush is a finding, and the
// finding names the unflushed path. A deferred flush does not cover a
// send (defers run after the body). Function literals are separate
// scopes: a flush before `go func(){ send }()` does not dominate the
// send inside the goroutine.
var FlushBeforeSend = &Analyzer{
	Name: "flushed-by",
	Doc:  "require a flush on every path to a message emission (path-sensitive)",
	Run:  runFlushBeforeSend,
}

func runFlushBeforeSend(ctx *Context) {
	for _, pkg := range ctx.Pkgs {
		if pkg.ImportPath == "mspr/internal/simnet" {
			continue // the transport itself; Send's definition, loopbacks
		}
		for _, file := range pkg.Files {
			eachFunc(file, func(fs funcScope) {
				checkFlushScope(ctx, pkg, fs)
			})
		}
	}
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

// checkFlushScope solves must-flushed over one function body and
// reports emitter calls reachable on an unflushed path.
func checkFlushScope(ctx *Context, pkg *Package, fs funcScope) {
	// Cheap pre-scan: most functions emit nothing.
	emits := false
	inspectNoFuncLit(fs.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isEmitCall(pkg, call) {
			emits = true
		}
		return !emits
	})
	if !emits {
		return
	}

	g := buildCFG(fs.body)
	spec := flowSpec[bool]{
		entry: false,
		transfer: func(flushed bool, n ast.Node) bool {
			if flushed {
				return true
			}
			// A defer'd flush runs at return, after any send in the body.
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				return flushed
			}
			inspectNode(n, func(sub ast.Node) bool {
				if call, ok := sub.(*ast.CallExpr); ok && isFlushCall(pkg, call) {
					flushed = true
				}
				return true
			})
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
		// A deferred emit is still checked, at the defer's position: it
		// runs at exit, so a flush dominating the defer statement is the
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
			ctx.report(pkg, call.Pos(),
				"%s reachable without a flush%s: flush-before-send pessimism (paper §3.1) requires a flush on every path, or //mspr:flushed-by <func>",
				name, unflushedPath(ctx.Fset, g, in, call))
			return true
		})
	})
}

// unflushedPath reconstructs one witness path from the function entry
// to the offending emit along which no flush executes, rendered as the
// line numbers of the blocks traversed. BFS over blocks whose entry
// fact is still unflushed finds the shortest such path; the emit block
// itself qualifies because the reporting pass saw the fact still false
// at the emit node.
func unflushedPath(fset *token.FileSet, g *cfg, in map[*cfgBlock]bool, emit *ast.CallExpr) string {
	var target *cfgBlock
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			found := false
			inspectNode(n, func(sub ast.Node) bool {
				if sub == emit {
					found = true
				}
				return !found
			})
			if found {
				target = blk
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
	// Blocks traversable without flushing: entry fact false, and (except
	// for the target, where the emit precedes any later flush) exit fact
	// also false — i.e. the block contains no flush.
	prev := make(map[*cfgBlock]*cfgBlock)
	entry := g.entry()
	queue := []*cfgBlock{entry}
	seen := map[*cfgBlock]bool{entry: true}
	for len(queue) > 0 && prev[target] == nil && target != entry {
		blk := queue[0]
		queue = queue[1:]
		for _, e := range blk.succs {
			if seen[e.to] {
				continue
			}
			if flushed, ok := in[e.to]; !ok || flushed {
				continue
			}
			seen[e.to] = true
			prev[e.to] = blk
			queue = append(queue, e.to)
		}
	}
	if target != entry && prev[target] == nil {
		return ""
	}
	var lines []int
	for blk := target; blk != nil; blk = prev[blk] {
		if len(blk.nodes) > 0 {
			l := fset.Position(blk.nodes[0].Pos()).Line
			if len(lines) == 0 || lines[len(lines)-1] != l {
				lines = append(lines, l)
			}
		}
		if blk == entry {
			break
		}
	}
	if len(lines) == 0 {
		return ""
	}
	parts := make([]string, 0, len(lines))
	for i := len(lines) - 1; i >= 0; i-- {
		parts = append(parts, fmt.Sprintf("%d", lines[i]))
	}
	return " (unflushed path: line " + strings.Join(parts, " -> ") + ")"
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
