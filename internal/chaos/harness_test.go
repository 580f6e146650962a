package chaos

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mspr/internal/core"
	"mspr/internal/failpoint"
	"mspr/internal/invariants"
	"mspr/internal/simdisk"
)

// TestRestartTimesSummary: a Proc records one crash-to-ready sample per
// successful restart, and a restart that dies at an injected crash point
// returns the error, records nothing and keeps the old incarnation, so
// that restarting again just works.
func TestRestartTimesSummary(t *testing.T) {
	p := soloStorm(t, 1, 1, StormSpec{Seed: 7}).Back
	for i := 0; i < 3; i++ {
		if err := p.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	if n, mean, max := p.Restarts.Count(), p.Restarts.Mean(), p.Restarts.Max(); n != 3 || mean <= 0 || mean > max {
		t.Fatalf("after 3 restarts: count %d, mean %v, max %v", n, mean, max)
	}
	old := p.Current()
	p.FP.Enable(core.FPRecoveryBeforeScan)
	if err := p.Restart(); !failpoint.IsInjected(err) {
		t.Fatalf("restart into an armed crash point: err = %v, want the injected crash", err)
	}
	if p.Current() != old || p.Restarts.Count() != 3 {
		t.Fatalf("failed restart replaced the incarnation or was recorded (%d restarts)", p.Restarts.Count())
	}
	if err := p.Restart(); err != nil || p.Current() == old || p.Restarts.Count() != 4 {
		t.Fatalf("restart after a failed one: err %v, %d restarts", err, p.Restarts.Count())
	}
}

// mainModuleFiles parses every Go file of the main module — everything
// but benchmark/ (its own module, deliberately pinned) and testdata.
func mainModuleFiles(t *testing.T) map[string]*ast.File {
	t.Helper()
	_, files, err := invariants.ParseTree("../..", func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// calls reports whether fn calls a function or method selected as
// x.sel (any receiver when x is "").
func calls(fn *ast.FuncDecl, x, sel string) bool {
	return invariants.Count(fn, invariants.Call(x, sel)) > 0
}

// TestNoFailpointLeftBehind keeps the crash surface auditable. Over every
// non-test Go file of the main module (benchmark/ and testdata/ aside):
//
//	(a) a package declares its FP* string constants in one const block,
//	    so its whole crash surface is greppable in one place;
//	(b) every FP* constant is referenced by non-test code outside this
//	    package and cmd/ — its inject site: a point nobody evaluates
//	    covers no crash window;
//	(c) every FP* constant is fired by the storms (it is in CrashSurface)
//	    or excluded below with the reason: a crash point nobody injects
//	    is a recovery path nobody runs;
//	(d) no call X.Enable, X.Eval, X.Disable, X.Armed or X.Hits passes
//	    its failpoint name as a string literal: a typo there silently
//	    arms nothing.
func TestNoFailpointLeftBehind(t *testing.T) {
	excluded := map[string]string{
		core.FPDedupSkip: "sabotage, not a crash: it breaks deduplication so the oracle can be seen to notice (StormSpec.BreakDedup)",
		simdisk.FPWriteCorrupt: "reported, not absorbed (DESIGN.md, Fault model): a flipped bit in a block with valid records after it " +
			"is indistinguishable from damage to acknowledged data, so recovery refuses with wal.ErrCorrupt and the process stays down " +
			"(a solo storm of corrupt-log faults wedges within 20 seeds); wal's TestMidLogCorruptionIsHardError pins the refusal",
	}
	fired := map[string]bool{}
	for _, cp := range CrashSurface {
		fired[cp.Point] = true
	}
	fset, files, err := invariants.ParseTree("../..", invariants.NonTest)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for rel := range files {
		paths = append(paths, rel)
	}
	sort.Strings(paths)
	at := func(rel string, n ast.Node) string { return fmt.Sprintf("%s:%d", rel, fset.Position(n.Pos()).Line) }

	// Declarations, keyed "<package dir>.<name>"; rule (a) as they are met.
	type fpConst struct{ key, name, at, point string }
	var consts []fpConst
	decls := map[*ast.Ident]bool{}
	type constBlock struct {
		decl *ast.GenDecl
		at   string
	}
	blocks := map[string]constBlock{} // package dir → its FP const block
	for _, rel := range paths {
		dir := path.Dir(rel)
		for _, d := range files[rel].Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !isFPName(name.Name) || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					point, _ := strconv.Unquote(lit.Value)
					consts = append(consts, fpConst{dir + "." + name.Name, name.Name, at(rel, name), point})
					decls[name] = true
					if b, ok := blocks[dir]; !ok {
						blocks[dir] = constBlock{gd, at(rel, gd)}
					} else if b.decl != gd {
						t.Errorf("%s: %s is declared outside its package's FP const block (%s): keep the crash surface in one block",
							at(rel, name), name.Name, b.at)
					}
				}
			}
		}
	}
	if len(consts) < len(CrashSurface) {
		t.Fatalf("found %d FP* constants for a %d-row table: the scan is broken", len(consts), len(CrashSurface))
	}

	// Rule (d) over every file; references — a bare name in its own
	// package, pkg.Name elsewhere — outside the harness and cmd/.
	nameMethods := map[string]bool{"Enable": true, "Eval": true, "Disable": true, "Armed": true, "Hits": true}
	injected := map[string]bool{}
	for _, rel := range paths {
		f, dir, imports := files[rel], path.Dir(rel), map[string]string{}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ipath)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = strings.TrimPrefix(ipath, "mspr/")
		}
		inject := !strings.HasPrefix(rel, "internal/chaos/") && !strings.HasPrefix(rel, "cmd/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if s, ok := n.Fun.(*ast.SelectorExpr); ok && nameMethods[s.Sel.Name] && len(n.Args) > 0 {
					if lit, ok := ast.Unparen(n.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
						t.Errorf("%s: failpoint name %s passed to %s as a string literal: use its FP* constant", at(rel, lit), lit.Value, s.Sel.Name)
					}
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && inject {
					injected[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
			case *ast.Ident:
				if inject && !decls[n] {
					injected[dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	for _, c := range consts {
		if !injected[c.key] {
			t.Errorf("%s: %s is referenced by no non-test code outside internal/chaos and cmd/: no inject site evaluates it", c.at, c.name)
		}
		switch {
		case fired[c.point] && excluded[c.point] != "":
			t.Errorf("%s: %s is both in CrashSurface and excluded", c.at, c.name)
		case !fired[c.point] && excluded[c.point] == "":
			t.Errorf("%s: %s = %q is in neither CrashSurface nor the exclusion list: no storm ever fires it", c.at, c.name, c.point)
		}
	}
}

// isFPName reports whether a constant's name follows the FP* convention
// of failpoint names (FPWriteTorn, not FPS).
func isFPName(name string) bool {
	return len(name) > 2 && strings.HasPrefix(name, "FP") && name[2] >= 'A' && name[2] <= 'Z'
}

// TestOneHarnessStaysOne pins what the harness was reduced to, in the
// style of core's TestOneAbortPath: the crash → start → swap protocol
// lives in Proc.Restart, so no function outside this package (and the
// packages that cannot import it: core's own tests, txmsp; plus the
// standalone examples and the public facade's own tests and godoc
// examples in the module root) both crashes a server and calls
// core.Start or its facade mspr.Start; and the counter encoding is
// written once. The copies had drifted into three different answers to a
// failed restart.
func TestOneHarnessStaysOne(t *testing.T) {
	codecs := map[string][]string{} // lower-cased helper name → files declaring it
	invariants.EachFuncDecl(mainModuleFiles(t), func(path string, fn *ast.FuncDecl) {
		inCoreTests := strings.HasPrefix(path, "internal/core/") && strings.HasSuffix(path, "_test.go")
		example := strings.HasPrefix(path, "examples/")
		facadeTests := !strings.Contains(path, "/") && strings.HasSuffix(path, "_test.go")
		if name := strings.ToLower(fn.Name.Name); fn.Recv == nil && (name == "u64" || name == "asu64") &&
			!example && !inCoreTests {
			codecs[name] = append(codecs[name], path)
		}
		if !example && !inCoreTests && !facadeTests && !strings.HasPrefix(path, "internal/chaos/") && !strings.HasPrefix(path, "internal/txmsp/") &&
			calls(fn, "", "Crash") && (calls(fn, "core", "Start") || calls(fn, "mspr", "Start")) {
			t.Errorf("%s: %s crashes a server and starts the next one itself: restart through chaos.Proc", path, fn.Name.Name)
		}
	})
	for _, name := range []string{"u64", "asu64"} {
		if got := codecs[name]; len(got) != 1 || got[0] != "internal/chaos/counter.go" {
			t.Errorf("func %s declared in %v, want only internal/chaos/counter.go", name, got)
		}
	}
}

// TestLogLevelsMatchDisks: after a storm on 4 KB segments the live segment
// count the report prints, summed from the storm's logs, is the number of
// segment files left on the storm's disks.
func TestLogLevelsMatchDisks(t *testing.T) {
	rep, st, err := RunStorm(StormSpec{Actors: 4, Ops: 40, Seed: 7, SegmentSize: 4 << 10}, Options{Seed: 7, FaultEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("storm failed: %v", rep.Errors)
	}
	files := 0
	for _, d := range st.disks {
		for _, name := range d.List("") {
			suffix := name[strings.LastIndexByte(name, '.')+1:]
			if _, err := strconv.Atoi(suffix); err == nil && len(suffix) == 6 {
				files++
			}
		}
	}
	if segs, live := st.LogLevels(); segs != files || live <= 0 {
		t.Fatalf("report: %d live segments holding %d bytes; disks: %d segment files", segs, live, files)
	}
}
