package invariants

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the function or method object a call invokes, or
// nil for calls through function values, type conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isMethod reports whether fn is the named method on the named type of
// the package with the given import path (receiver may be a pointer).
func isMethod(fn *types.Func, pkgPath, typeName, method string) bool {
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	named := recvNamed(fn)
	return named != nil && named.Obj().Name() == typeName
}

// isNamedType reports whether t (after stripping pointers) is the named
// type pkgPath.typeName.
func isNamedType(t types.Type, pkgPath, typeName string) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Name() == typeName &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath
}

// namedOf returns t, or the type t points to, when that is a named type.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// recvNamed returns the named type of fn's receiver (through a pointer),
// or nil.
func recvNamed(fn *types.Func) *types.Named {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// funcScope is one function body under analysis: a declaration or a
// literal, with the declaration it is nested in (for doc directives).
type funcScope struct {
	decl *ast.FuncDecl // nil for a literal at file scope (impossible in practice)
	body *ast.BlockStmt
	typ  *ast.FuncType
}

// eachScope runs check on every function body of the loaded packages:
// each declaration, and each function literal as a scope of its own
// (reporting the declaration it is nested in).
func (ctx *Context) eachScope(check func(*Context, *Package, funcScope)) {
	for _, pkg := range ctx.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				check(ctx, pkg, funcScope{decl: fd, body: fd.Body, typ: fd.Type})
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						check(ctx, pkg, funcScope{decl: fd, body: lit.Body, typ: lit.Type})
					}
					return true
				})
			}
		}
	}
}
