package invariants

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// The concurrency analyzers are driven by declarations in the source,
// not hardcoded tables, so the same passes check both the production
// tree and self-contained golden fixtures:
//
//	//mspr:guarded-by <mu>          on a struct field: the field may only
//	                                be accessed while the sibling mutex
//	                                field <mu> is held
//	//mspr:lock-level <n> [noblock] on a mutex field: its rank in the
//	                                acquisition lattice (locks must be
//	                                taken in strictly increasing rank);
//	                                noblock additionally forbids blocking
//	                                calls while the lock is held
//	//mspr:blocking <reason>        on a function declaration: calling it
//	                                may block (a blocking root; blocking
//	                                propagates to transitive callers)
//	//mspr:holds <mu>               on a method declaration: the caller
//	                                holds the receiver's mutex field <mu>
//	                                on entry (the *Locked helper idiom)
//
// This file resolves those directives into typed objects (the mutex
// class of a lock is its *types.Var field object — class-level, any
// instance) and computes the interprocedural may-block / may-acquire
// summaries over the loaded packages' static call graph.

// lockLevel is one lattice entry for a mutex field.
type lockLevel struct {
	level   int
	noblock bool
}

// annotations is the resolved directive-driven model, built once per
// Run and shared by the concurrency analyzers via Context.
type annotations struct {
	// guardedBy maps an annotated struct field to the sibling mutex
	// field that guards it.
	guardedBy map[*types.Var]*types.Var
	// lockLevels maps a mutex field to its declared lattice rank.
	lockLevels map[*types.Var]lockLevel
	// blockingRoots are function declarations annotated //mspr:blocking.
	blockingRoots map[*types.Func]bool
	// holds maps a function to the mutex classes its caller must hold.
	holds map[*types.Func][]*types.Var

	// mayBlock and mayAcquire are the transitive call-graph summaries:
	// whether calling fn may reach a blocking operation, and which
	// lattice-ranked mutex classes it may acquire.
	mayBlock   map[*types.Func]bool
	mayAcquire map[*types.Func]map[*types.Var]bool
}

// anns builds (once) and returns the resolved annotation model for the
// loaded packages.
func (ctx *Context) anns() *annotations {
	if ctx.annCache != nil {
		return ctx.annCache
	}
	a := &annotations{
		guardedBy:     make(map[*types.Var]*types.Var),
		lockLevels:    make(map[*types.Var]lockLevel),
		blockingRoots: make(map[*types.Func]bool),
		holds:         make(map[*types.Func][]*types.Var),
	}
	for _, pkg := range ctx.Pkgs {
		a.collectFields(ctx, pkg)
		a.collectFuncs(ctx, pkg)
	}
	a.summarize(ctx)
	ctx.annCache = a
	return a
}

// attached returns the well-formed directives with the given verb that
// are attached to a declaration — a struct field, a constant, a function
// — through its doc comment (which holds a directive standing alone on
// the line above) or the comment trailing its line. Malformed ones are
// left to the hygiene pass.
func attached(verb string, comments ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, cg := range comments {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if d, ok := parseDirective(c.Text); ok && d.Verb == verb && d.Arg != "" {
				out = append(out, d)
			}
		}
	}
	return out
}

// collectFields resolves guarded-by and lock-level directives on struct
// fields. Mis-resolved arguments (no such sibling field, a non-mutex
// lock-level target, a malformed rank) are findings: a guard that names
// nothing protects nothing.
func (a *annotations) collectFields(ctx *Context, pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			// Sibling lookup: field name -> object, for resolving mutex args.
			byName := make(map[string]*types.Var)
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						byName[name.Name] = v
					}
				}
			}
			for _, f := range st.Fields.List {
				if ds := attached("guarded-by", f.Doc, f.Comment); len(ds) > 0 {
					d := ds[0]
					mu := byName[d.Arg]
					if mu == nil {
						ctx.reportAs(directivesName, pkg, f.Pos(),
							"//mspr:guarded-by %s: no such sibling field", d.Arg)
						continue
					}
					for _, name := range f.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							a.guardedBy[v] = mu
						}
					}
				}
				if ds := attached("lock-level", f.Doc, f.Comment); len(ds) > 0 {
					d := ds[0]
					args := strings.Fields(d.Arg)
					lvl, err := strconv.Atoi(args[0])
					if err != nil || (len(args) > 1 && args[1] != "noblock") || len(args) > 2 {
						ctx.reportAs(directivesName, pkg, f.Pos(),
							"//mspr:lock-level wants \"<rank> [noblock]\", got %q", d.Arg)
						continue
					}
					for _, name := range f.Names {
						v, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						if !isMutexType(v.Type()) {
							ctx.reportAs(directivesName, pkg, f.Pos(),
								"//mspr:lock-level on %s, which is not a sync.Mutex/RWMutex", v.Name())
							continue
						}
						a.lockLevels[v] = lockLevel{level: lvl, noblock: len(args) > 1}
					}
				}
			}
			return true
		})
	}
}

// collectFuncs resolves blocking and holds directives on function
// declarations.
func (a *annotations) collectFuncs(ctx *Context, pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if len(attached("blocking", fd.Doc)) > 0 {
				a.blockingRoots[fn] = true
			}
			for _, d := range attached("holds", fd.Doc) {
				mu := receiverField(fn, d.Arg)
				if mu == nil {
					ctx.reportAs(directivesName, pkg, fd.Pos(),
						"//mspr:holds %s: receiver has no such field", d.Arg)
					continue
				}
				a.holds[fn] = append(a.holds[fn], mu)
			}
		}
	}
}

// receiverField resolves a field name against fn's receiver struct.
func receiverField(fn *types.Func, name string) *types.Var {
	named := recvNamed(fn)
	if named == nil {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// lockOp classifies a call as a mutex operation on a trackable lock
// class: x.mu.Lock() / Unlock() / RLock() / RUnlock() / TryLock /
// TryRLock, where mu resolves to a variable object (a struct field —
// the class covers every instance — or a package-level/local mutex).
func lockOp(info *types.Info, call *ast.CallExpr) (class *types.Var, acquire, release, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false, false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return nil, false, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return nil, false, false, false
	}
	sel, sok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !sok {
		return nil, false, false, false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if v, vok := info.Uses[x.Sel].(*types.Var); vok {
			return v, acquire, release, true
		}
	case *ast.Ident:
		if v, vok := info.Uses[x].(*types.Var); vok {
			return v, acquire, release, true
		}
	}
	return nil, false, false, false
}

// blockingOp reports whether n, one node of a function body, may block
// the goroutine running it, and names the operation as a lockorder
// finding does. It is the one classifier behind both the call-graph
// summaries and lockorder's reports: a channel send or receive — unless
// it is a select case's own operation (in comm), which blocks only as
// part of its select — a select without a default, or a call to
// sync.WaitGroup.Wait or sync.Cond.Wait (stdlib waits that cannot carry
// a directive), to an //mspr:blocking root, or to a function summarize
// found may reach one.
func (a *annotations) blockingOp(info *types.Info, n ast.Node, comm map[ast.Node]bool) (string, bool) {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", !comm[n]
	case *ast.UnaryExpr:
		return "channel receive", n.Op == token.ARROW && !comm[n]
	case *ast.SelectStmt:
		return "blocking select", !hasDefaultCommClause(n)
	case *ast.CallExpr:
		fn := calleeFunc(info, n)
		if isMethod(fn, "sync", "WaitGroup", "Wait") || isMethod(fn, "sync", "Cond", "Wait") ||
			a.blockingRoots[fn] || a.mayBlock[fn] {
			return "call to " + fn.Name() + ", which may block,", true
		}
	}
	return "", false
}

// selectComms collects the channel operations of the select cases in
// body: a send, or the receive expression of `case <-ch:` and
// `case v := <-ch:`.
func selectComms(body *ast.BlockStmt) map[ast.Node]bool {
	comm := make(map[ast.Node]bool)
	inspectNoFuncLit(body, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CommClause); ok {
			switch s := cc.Comm.(type) {
			case *ast.SendStmt:
				comm[s] = true
			case *ast.ExprStmt:
				comm[ast.Unparen(s.X)] = true
			case *ast.AssignStmt:
				comm[ast.Unparen(s.Rhs[0])] = true
			}
		}
		return true
	})
	return comm
}

func hasDefaultCommClause(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

// summarize computes the transitive may-block / may-acquire summaries
// over the static call graph of the loaded packages. Function literals
// are excluded from their enclosing function's summary (a literal's
// body runs when the value is called, not where it is written); calls
// through function values and interfaces are unresolvable and treated
// as non-blocking — the analyzers' documented soundness limit.
func (a *annotations) summarize(ctx *Context) {
	type funcBody struct {
		pkg  *Package
		body *ast.BlockStmt
	}
	decls := make(map[*types.Func]funcBody)
	for _, pkg := range ctx.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = funcBody{pkg, fd.Body}
				}
			}
		}
	}

	a.mayBlock = make(map[*types.Func]bool)
	a.mayAcquire = make(map[*types.Func]map[*types.Var]bool)
	acquires := func(fn *types.Func, class *types.Var) bool {
		if a.mayAcquire[fn][class] {
			return false
		}
		if a.mayAcquire[fn] == nil {
			a.mayAcquire[fn] = make(map[*types.Var]bool)
		}
		a.mayAcquire[fn][class] = true
		return true
	}
	calls := make(map[*types.Func][]*types.Func)
	for fn, fb := range decls {
		info, comm := fb.pkg.Info, selectComms(fb.body)
		inspectNoFuncLit(fb.body, func(n ast.Node) bool {
			if _, blocks := a.blockingOp(info, n, comm); blocks {
				a.mayBlock[fn] = true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if class, acquire, _, isLock := lockOp(info, call); isLock {
				if _, ranked := a.lockLevels[class]; acquire && ranked {
					acquires(fn, class)
				}
			} else if callee := calleeFunc(info, call); callee != nil {
				if _, local := decls[callee]; local {
					calls[fn] = append(calls[fn], callee)
				}
			}
			return true
		})
	}

	// Propagate to a fixpoint (the graph is small; simple iteration).
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for _, c := range callees {
				if a.mayBlock[c] && !a.mayBlock[fn] {
					a.mayBlock[fn] = true
					changed = true
				}
				for class := range a.mayAcquire[c] {
					changed = acquires(fn, class) || changed
				}
			}
		}
	}
}

// entryHeld returns the lock classes a function's caller holds on entry
// (//mspr:holds declarations). Literals have no declaration and start
// with nothing held.
func (a *annotations) entryHeld(pkg *Package, fs funcScope) []*types.Var {
	if fs.decl == nil || fs.body != fs.decl.Body {
		return nil
	}
	fn, _ := pkg.Info.Defs[fs.decl.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	return a.holds[fn]
}
