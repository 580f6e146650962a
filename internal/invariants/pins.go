package invariants

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// A structure pin is a test that holds a refactoring's result in place by
// looking at syntax alone: "one recover() in the package", "only these two
// files touch the disk". Pins need no type information, so they share this
// parse-and-match helper instead of the Loader.

// ParseTree parses the Go files under root that keep accepts, keyed by
// slash-separated path relative to root. It does not descend into
// testdata, hidden directories or nested modules.
func ParseTree(root string, keep func(rel string) bool) (*token.FileSet, map[string]*ast.File, error) {
	fset, files := token.NewFileSet(), make(map[string]*ast.File)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			_, modErr := os.Stat(filepath.Join(path, "go.mod"))
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || modErr == nil) {
				return filepath.SkipDir
			}
			return nil
		}
		if rel = filepath.ToSlash(rel); strings.HasSuffix(rel, ".go") && keep(rel) {
			if files[rel], err = parser.ParseFile(fset, path, nil, 0); err != nil {
				return err
			}
		}
		return nil
	})
	return fset, files, err
}

// NonTest is the ParseTree filter that drops _test.go files.
func NonTest(rel string) bool { return !strings.HasSuffix(rel, "_test.go") }

// EachFuncDecl calls fn for every function declaration with a body.
func EachFuncDecl(files map[string]*ast.File, fn func(path string, fd *ast.FuncDecl)) {
	for path, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(path, fd)
			}
		}
	}
}

// Sel matches the selector expression x.sel; an empty x matches any
// operand.
func Sel(x, sel string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		if !ok || s.Sel.Name != sel {
			return false
		}
		id, isIdent := s.X.(*ast.Ident)
		return x == "" || isIdent && id.Name == x
	}
}

// Call matches a call of x.sel — with an empty x, of any method or field
// named sel and of the plain function or builtin sel.
func Call(x, sel string) func(ast.Node) bool {
	isSel := Sel(x, sel)
	return func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, isIdent := c.Fun.(*ast.Ident)
		return isSel(c.Fun) || x == "" && isIdent && id.Name == sel
	}
}

// Count returns how many nodes under root match.
func Count(root ast.Node, match func(ast.Node) bool) int {
	n := 0
	ast.Inspect(root, func(node ast.Node) bool {
		if node != nil && match(node) {
			n++
		}
		return true
	})
	return n
}
