package invariants

import (
	"go/ast"
	"go/types"
)

// GuardedBy checks that struct fields annotated //mspr:guarded-by <mu>
// are only touched on paths where that mutex is held. The recovery
// protocol keeps almost all mutable state behind per-object locks —
// Session.mu over the phase/DV/position bookkeeping, sessionShard.mu
// over the stripe map, each wal layer's mutex over that layer's own
// state — and a single unlocked access is a torn read the race detector
// only catches if a test happens to interleave it.
//
// The analysis is a must-held forward dataflow (merge = intersection:
// a field access is safe only if the lock is held on EVERY path to
// it). Lock classes are class-level — x.mu.Lock() proves mu held for
// any instance, which matches the one-owner discipline here and avoids
// alias tracking. A deferred Unlock keeps the lock held through the
// body; //mspr:holds <mu> seeds the entry fact for *Locked-style
// helpers whose caller owns the lock. Composite literals (construction
// before publication) do not select fields and are naturally exempt;
// deliberate unlocked access — the single-threaded analysis scan, a
// freshly created object not yet visible — carries //mspr:guardedby
// <reason>.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "require annotated struct fields to be accessed only under their declared mutex",
	Run:  runGuardedBy,
}

func runGuardedBy(ctx *Context) {
	anns := ctx.anns()
	if len(anns.guardedBy) == 0 {
		return
	}
	for _, pkg := range ctx.Pkgs {
		for _, file := range pkg.Files {
			eachFunc(file, func(fs funcScope) {
				checkGuardedBy(ctx, anns, pkg, fs)
			})
		}
	}
}

func checkGuardedBy(ctx *Context, anns *annotations, pkg *Package, fs funcScope) {
	// Pre-scan: skip functions that never select an annotated field.
	touches := false
	inspectNoFuncLit(fs.body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok {
				if _, guarded := anns.guardedBy[v]; guarded {
					touches = true
				}
			}
		}
		return !touches
	})
	if !touches {
		return
	}

	g := buildCFG(fs.body)
	spec := flowSpec[heldSet]{
		entry:    entryHeldSet(anns, pkg, fs),
		transfer: func(h heldSet, n ast.Node) heldSet { return heldTransfer(pkg, h, n) },
		merge:    heldIntersect,
		equal:    heldEqual,
	}
	in := solve(g, spec)

	reported := make(map[*ast.SelectorExpr]bool)
	eachNodeFact(g, spec, in, func(held heldSet, n ast.Node) {
		inspectNode(n, func(sub ast.Node) bool {
			sel, ok := sub.(*ast.SelectorExpr)
			if !ok || reported[sel] {
				return true
			}
			v, ok := pkg.Info.Uses[sel.Sel].(*types.Var)
			if !ok {
				return true
			}
			mu, guarded := anns.guardedBy[v]
			if !guarded || held[mu] {
				return true
			}
			reported[sel] = true
			ctx.report(pkg, sel.Sel.Pos(),
				"%s is accessed without holding %s (//mspr:guarded-by), and the lock is not held on every path here",
				lockName(v), lockName(mu))
			return true
		})
	})
}
