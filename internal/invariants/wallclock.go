package invariants

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the package time functions that read the wall clock
// or wait on it. Duration arithmetic (time.Duration and the unit
// constants) is deliberately not listed — modelling latencies is fine,
// observing real time is not.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

// Wallclock forbids wall-clock time outside the simulated time plane.
// The determinism of the simulation layers (simdisk latency charging,
// simnet delivery, the chaos storms' reproducibility) depends on every
// time read and every wait being routed through internal/simtime, whose
// clock a test can step. internal/simtime itself and _test.go files are
// exempt; any other reference to one of the listed functions — a call or
// a function value — needs an //mspr:wallclock <reason> directive.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Sleep/After/... outside internal/simtime and tests",
	Run:  runWallclock,
}

func runWallclock(ctx *Context) {
	for _, pkg := range ctx.Pkgs {
		if pkg.ImportPath == "mspr/internal/simtime" {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, _ := n.(*ast.Ident) // a dot import
				if sel, ok := n.(*ast.SelectorExpr); ok {
					id = sel.Sel
				}
				fn, _ := pkg.Info.Uses[id].(*types.Func)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallclockFuncs[fn.Name()] ||
					fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				ctx.report(pkg, n.Pos(),
					"wall-clock time.%s outside internal/simtime breaks sim determinism; use simtime or annotate //mspr:wallclock <reason>",
					fn.Name())
				return false
			})
		}
	}
}
