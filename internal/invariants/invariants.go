// Package invariants is a zero-dependency static analysis framework
// that turns the paper's recovery-correctness rules into compile-time
// checks. Each Analyzer encodes one protocol invariant the Go compiler
// cannot see — pessimistic flush-before-send at domain boundaries,
// no aliasing of dependency vectors, no wall-clock reads outside the
// simulated time plane, no dropped errors from the durability layer,
// the mutex lattice and guarded fields. The cmd/mspr-vet command loads
// ./... and runs the suite; CI gates on a clean run.
//
// The path-sensitive rules run on one dataflow solver over each
// function's CFG (dataflow.go): flushed-by solves "a flush has run" on
// every path (ordering.go), and lockorder and guardedby read the may and
// the must half of one held-lock solve (locks.go).
//
// Findings can be suppressed — and deliberate exceptions documented —
// with //mspr: directives in the source:
//
//	//mspr:wallclock <reason>       exempt a wall-clock use
//	//mspr:flushed-by <func>        name the wrapper that performs the
//	                                dominating flush (or "none <reason>"
//	                                for messages carrying no state)
//	//mspr:dvalias <reason>         exempt a vector alias
//	//mspr:walerr <reason>          exempt a dropped durability error
//	//mspr:lockorder <reason>       exempt a lock-ordering site
//	//mspr:guardedby <reason>       exempt an unguarded field access
//
// A second directive family DECLARES the concurrency model the
// flow-sensitive analyzers check against (see annotations.go):
// //mspr:guarded-by <mu> and //mspr:lock-level <n> [noblock] on struct
// fields, //mspr:blocking <reason> and //mspr:holds <mu> on function
// declarations.
//
// A directive trailing a statement applies to that line; a directive
// alone on a line applies to the next line; a directive in a top-level
// declaration's doc comment applies to the whole declaration. A
// directive with an unknown verb or a missing argument is itself a
// finding.
package invariants

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Finding is one reported invariant violation.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one invariant check over a set of packages.
type Analyzer struct {
	Name string // also the //mspr: directive verb that suppresses it
	Doc  string
	Run  func(ctx *Context)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock,
		FlushBeforeSend,
		DVAlias,
		WALErr,
		LockOrder,
		GuardedBy,
	}
}

// directivesName attributes findings of the always-on hygiene pass
// (malformed directives, mis-resolved annotation arguments). It is a
// pseudo-analyzer: ByName accepts it (selecting no analyzers, so a run
// checks hygiene alone) but All() does not list it.
const directivesName = "directives"

// ByName resolves a comma-separated analyzer list; empty selects all.
// The pseudo-name "directives" selects the always-on hygiene pass
// alone. An unknown name is an error naming the known analyzers.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	known := []string{directivesName}
	for _, a := range All() {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	out := []*Analyzer{}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == directivesName {
			continue // hygiene always runs; selecting it adds no analyzer
		}
		a, ok := byName[n]
		if !ok {
			sort.Strings(known)
			return nil, fmt.Errorf("invariants: unknown analyzer %q (known: %s)",
				n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Context is the state shared by one suite run: the loaded packages and
// the accumulated findings.
type Context struct {
	Fset *token.FileSet
	Pkgs []*Package

	loader   *Loader
	current  *Analyzer
	findings []Finding

	annCache   *annotations // lazily resolved //mspr: declarations
	heldCache  []heldScope  // lazily solved held-lock pass (see heldScopes)
	noSuppress bool         // test hook: report through directives
}

// Run executes the analyzers over the packages and returns all findings
// sorted by position. Directive hygiene (unknown verbs, missing
// arguments) is always checked.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Finding {
	return run(l, pkgs, analyzers, false)
}

// runNoSuppress is Run with //mspr: suppression directives ignored: the
// meta-test runs each fixture both ways and requires the no-suppression
// pass to surface strictly more findings, proving every analyzer ships
// a demonstrated suppressed case alongside its caught cases.
func runNoSuppress(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Finding {
	return run(l, pkgs, analyzers, true)
}

func run(l *Loader, pkgs []*Package, analyzers []*Analyzer, noSuppress bool) []Finding {
	ctx := &Context{Fset: l.Fset, Pkgs: pkgs, loader: l, noSuppress: noSuppress}
	ctx.checkDirectives()
	for _, a := range analyzers {
		ctx.current = a
		a.Run(ctx)
	}
	// Full tiebreak down to the message: two findings from one analyzer
	// at one position (a path-sensitive pass can report several paths)
	// still diff deterministically in -json output.
	slices.SortFunc(ctx.findings, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col),
			strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
	})
	return ctx.findings
}

// report files a finding at pos unless a matching directive suppresses
// it. The directive verb is the analyzer name (FlushBeforeSend uses
// "flushed-by").
func (ctx *Context) report(pkg *Package, pos token.Pos, format string, args ...any) {
	if ctx.noSuppress || !pkg.suppressed(ctx.Fset, pos, ctx.current.Name) {
		ctx.reportAs(ctx.current.Name, pkg, pos, format, args...)
	}
}

// reportAs files a finding under an explicit analyzer name, bypassing
// suppression — used for annotation-hygiene errors (a guarded-by naming
// a missing field), which, like malformed directives, must not be
// silenceable.
func (ctx *Context) reportAs(analyzer string, pkg *Package, pos token.Pos, format string, args ...any) {
	p := ctx.Fset.Position(pos)
	ctx.findings = append(ctx.findings, Finding{
		Analyzer: analyzer,
		File:     p.Filename,
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Directive is one parsed //mspr: comment.
type Directive struct {
	Verb string
	Arg  string
}

// knownVerbs are the accepted directive verbs: the analyzer names
// (suppressions) plus the declaration verbs resolved in annotations.go.
var knownVerbs = map[string]bool{
	"wallclock":  true,
	"flushed-by": true,
	"dvalias":    true,
	"walerr":     true,
	"lockorder":  true,
	"guardedby":  true,
	"guarded-by": true,
	"lock-level": true,
	"blocking":   true,
	"holds":      true,
}

// dirIndex is a package's directive lookup structure.
type dirIndex struct {
	// byLine maps a file's line to the directives applying to it.
	byLine map[token.Position][]Directive
	// decls are doc-comment directives covering a line range.
	decls []declDirective
	// malformed directives (unknown verb / missing argument).
	malformed []Finding
}

type declDirective struct {
	file     string
	from, to int
	d        Directive
}

const directivePrefix = "//mspr:"

// directives builds (once) and returns the package's directive index.
func (p *Package) directives(l *Loader) *dirIndex {
	if p.dirs != nil {
		return p.dirs
	}
	idx := &dirIndex{byLine: make(map[token.Position][]Directive)}
	for _, f := range p.Files {
		p.indexFile(l, f, idx)
	}
	p.dirs = idx
	return idx
}

func (p *Package) indexFile(l *Loader, f *ast.File, idx *dirIndex) {
	fset := l.Fset
	// Doc-comment directives cover their whole declaration.
	docDirs := func(doc *ast.CommentGroup, from, to token.Pos) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			d, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			if bad := validateDirective(d, pos); bad != nil {
				idx.malformed = append(idx.malformed, *bad)
				continue
			}
			idx.decls = append(idx.decls, declDirective{
				file: pos.Filename,
				from: fset.Position(from).Line,
				to:   fset.Position(to).Line,
				d:    d,
			})
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			docDirs(decl.Doc, decl.Pos(), decl.End())
		case *ast.GenDecl:
			docDirs(decl.Doc, decl.Pos(), decl.End())
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					docDirs(spec.Doc, spec.Pos(), spec.End())
				case *ast.ValueSpec:
					docDirs(spec.Doc, spec.Pos(), spec.End())
				}
			}
		}
	}
	// Line directives: trailing -> same line, standalone -> next line.
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			if bad := validateDirective(d, pos); bad != nil {
				idx.malformed = append(idx.malformed, *bad)
				continue
			}
			key := token.Position{Filename: pos.Filename, Line: pos.Line}
			if p.standaloneComment(l, c) {
				key.Line++
			}
			idx.byLine[key] = append(idx.byLine[key], d)
		}
	}
}

// standaloneComment reports whether only whitespace precedes the comment
// on its line.
func (p *Package) standaloneComment(l *Loader, c *ast.Comment) bool {
	tf := l.Fset.File(c.Pos())
	if tf == nil {
		return false
	}
	pos := l.Fset.Position(c.Pos())
	src, ok := l.src[pos.Filename]
	if !ok {
		return false
	}
	lineStart := tf.Offset(tf.LineStart(pos.Line))
	off := tf.Offset(c.Pos())
	if lineStart < 0 || off > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[lineStart:off])) == ""
}

func parseDirective(text string) (Directive, bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return Directive{}, false
	}
	verb, arg, _ := strings.Cut(rest, " ")
	return Directive{Verb: strings.TrimSpace(verb), Arg: strings.TrimSpace(arg)}, true
}

func validateDirective(d Directive, pos token.Position) *Finding {
	if !knownVerbs[d.Verb] {
		return &Finding{Analyzer: "directives", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: fmt.Sprintf("unknown //mspr: directive verb %q", d.Verb)}
	}
	if d.Arg == "" {
		return &Finding{Analyzer: "directives", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: fmt.Sprintf("//mspr:%s needs an argument (a reason, or the flushing wrapper's name)", d.Verb)}
	}
	return nil
}

// suppressed reports whether a directive with the given verb covers pos.
func (p *Package) suppressed(fset *token.FileSet, pos token.Pos, verb string) bool {
	if p.dirs == nil {
		return false // index is built in Run via checkDirectives
	}
	pp := fset.Position(pos)
	for _, d := range p.dirs.byLine[token.Position{Filename: pp.Filename, Line: pp.Line}] {
		if d.Verb == verb {
			return true
		}
	}
	for _, dd := range p.dirs.decls {
		if dd.d.Verb == verb && dd.file == pp.Filename && dd.from <= pp.Line && pp.Line <= dd.to {
			return true
		}
	}
	return false
}

// checkDirectives builds every package's directive index and reports
// malformed directives.
func (ctx *Context) checkDirectives() {
	for _, pkg := range ctx.Pkgs {
		idx := pkg.directives(ctx.loader)
		ctx.findings = append(ctx.findings, idx.malformed...)
	}
}
