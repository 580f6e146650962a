package invariants

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the golden marks in fixture sources: want "substring".
// Both trailing line comments and /* */ comments carry marks.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// runFixture loads testdata/<fixture>, runs the given analyzers (plus
// the always-on directive hygiene check) and asserts that the findings
// and the fixture's want-marks agree exactly, in both directions.
func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", fixture)
	pkgs, err := l.Load(".", dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	findings := Run(l, pkgs, analyzers)

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				k := key{abs, i + 1}
				wants[k] = append(wants[k], m[1])
			}
		}
	}

	for _, f := range findings {
		k := key{f.File, f.Line}
		ws := wants[k]
		matched := -1
		for i, w := range ws {
			if strings.Contains(f.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[k] = append(ws[:matched], ws[matched+1:]...)
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: no finding matching %q", k.file, k.line, w)
		}
	}
}

func TestWallclockFixture(t *testing.T)       { runFixture(t, "wallclock", Wallclock) }
func TestFlushBeforeSendFixture(t *testing.T) { runFixture(t, "flushsend", FlushBeforeSend) }
func TestDVAliasFixture(t *testing.T)         { runFixture(t, "dvalias", DVAlias) }
func TestWALErrFixture(t *testing.T)          { runFixture(t, "walerr", WALErr) }
func TestLockOrderFixture(t *testing.T)       { runFixture(t, "lockorder", LockOrder) }
func TestGuardedByFixture(t *testing.T)       { runFixture(t, "guardedby", GuardedBy) }

// TestDirectivesFixture runs no analyzers at all: the malformed-directive
// findings come from the always-on hygiene pass.
func TestDirectivesFixture(t *testing.T) { runFixture(t, "directives") }

// TestTreeIsClean runs the full suite over the whole module, the same
// gate CI applies: the production tree must have zero findings.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(l.Root(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(l, pkgs, All()) {
		t.Errorf("%s", f)
	}
}

// renderFindings is the .golden form of a finding list: one Finding per
// line, its file relative to dir.
func renderFindings(dir string, fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		if rel, err := filepath.Rel(dir, f.File); err == nil {
			f.File = filepath.ToSlash(rel)
		}
		fmt.Fprintln(&b, f)
	}
	return b.String()
}

// TestFindingsGolden pins the suite's output byte for byte, where a
// fixture's want marks only match message substrings: testdata/<fixture>.golden
// holds the full suite's findings on that fixture — columns, messages and
// witness paths included — first with //mspr: suppression, then without;
// testdata/tree.golden holds them for ./... (empty: the tree is clean).
// The goldens were taken before lockorder/guardedby were folded onto a
// shared pass, and hold the fold to "same findings".
func TestFindingsGolden(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	check := func(golden, got string) {
		t.Helper()
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: findings differ from the golden\n--- got:\n%s--- want:\n%s", golden, got, want)
		}
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir, err := filepath.Abs(filepath.Join("testdata", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := l.Load(".", dir)
		if err != nil {
			t.Fatal(err)
		}
		check(dir+".golden", renderFindings(dir, Run(l, pkgs, All()))+"-- without //mspr: suppression --\n"+
			renderFindings(dir, runNoSuppress(l, pkgs, All())))
	}
	if testing.Short() {
		return // the tree half type-checks the entire module
	}
	pkgs, err := l.Load(l.Root(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	check(filepath.Join("testdata", "tree.golden"), renderFindings(l.Root(), Run(l, pkgs, All())))
}

// fixtureFor maps an analyzer to its golden-fixture directory; the
// coverage meta-test fails when a newly registered analyzer has no
// entry here (i.e. ships without fixtures).
var fixtureFor = map[string]string{
	"wallclock":  "wallclock",
	"flushed-by": "flushsend",
	"dvalias":    "dvalias",
	"walerr":     "walerr",
	"lockorder":  "lockorder",
	"guardedby":  "guardedby",
}

// TestEveryAnalyzerHasCaughtAndSuppressedCases is the fixture-coverage
// gate: every registered analyzer must demonstrate at least one caught
// violation AND at least one //mspr:-suppressed case in its fixture.
// The suppressed case is proven by re-running with suppression disabled
// and requiring strictly more findings from that analyzer.
func TestEveryAnalyzerHasCaughtAndSuppressedCases(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			fixture, ok := fixtureFor[a.Name]
			if !ok {
				t.Fatalf("analyzer %q has no fixture directory registered in fixtureFor", a.Name)
			}
			l, err := NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := l.Load(".", filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			count := func(fs []Finding) int {
				n := 0
				for _, f := range fs {
					if f.Analyzer == a.Name {
						n++
					}
				}
				return n
			}
			caught := count(Run(l, pkgs, []*Analyzer{a}))
			if caught == 0 {
				t.Errorf("fixture %s has no caught case for %s", fixture, a.Name)
			}
			unsuppressed := count(runNoSuppress(l, pkgs, []*Analyzer{a}))
			if unsuppressed <= caught {
				t.Errorf("fixture %s has no suppressed case for %s: %d findings with suppression, %d without",
					fixture, a.Name, caught, unsuppressed)
			}
		})
	}
}

// TestFindingsDeterministic runs the full suite twice over the same
// fixture and requires byte-identical, fully-ordered output: findings
// carry column numbers and sort by (file, line, col, analyzer, message)
// so -json diffs are stable across runs.
func TestFindingsDeterministic(t *testing.T) {
	load := func() (*Loader, []*Package) {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := l.Load(".", filepath.Join("testdata", "flushsend"))
		if err != nil {
			t.Fatal(err)
		}
		return l, pkgs
	}
	l1, p1 := load()
	l2, p2 := load()
	a := Run(l1, p1, All())
	b := Run(l2, p2, All())
	if len(a) == 0 {
		t.Fatal("fixture produced no findings")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs disagree:\n%v\nvs\n%v", a, b)
	}
	for i, f := range a {
		if f.Col == 0 {
			t.Errorf("finding %d has no column: %s", i, f)
		}
		if i == 0 {
			continue
		}
		p := a[i-1]
		if p.File > f.File ||
			(p.File == f.File && (p.Line > f.Line ||
				(p.Line == f.Line && (p.Col > f.Col ||
					(p.Col == f.Col && (p.Analyzer > f.Analyzer ||
						(p.Analyzer == f.Analyzer && p.Message > f.Message))))))) {
			t.Errorf("findings out of order at %d: %s after %s", i, f, p)
		}
	}
}

// TestLexicalDominanceMissesBranch pins down why the pass went
// path-sensitive: PR 3's lexical check accepts sendMaybeFlushed (a
// flush DOES appear earlier in the source), while the dataflow pass
// reports the branch that skips it.
func TestLexicalDominanceMissesBranch(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(".", filepath.Join("testdata", "flushsend"))
	if err != nil {
		t.Fatal(err)
	}
	var pkg *Package
	for _, p := range pkgs {
		if strings.HasSuffix(p.ImportPath, "flushsend") {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatal("fixture package not loaded")
	}
	var body *ast.BlockStmt
	var emit *ast.CallExpr
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "sendMaybeFlushed" {
				continue
			}
			body = fd.Body
			ast.Inspect(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isEmitCall(pkg, call) {
					emit = call
				}
				return true
			})
		}
	}
	if body == nil || emit == nil {
		t.Fatal("sendMaybeFlushed emit call not found in fixture")
	}
	if !lexicallyDominated(pkg, body, emit) {
		t.Error("lexical pass should accept sendMaybeFlushed (flush earlier in source)")
	}
	emitLine := l.Fset.Position(emit.Pos()).Line
	found := false
	for _, f := range Run(l, pkgs, []*Analyzer{FlushBeforeSend}) {
		if f.Line == emitLine && strings.Contains(f.Message, "reachable without a flush") {
			found = true
		}
	}
	if !found {
		t.Errorf("path-sensitive pass missed the unflushed branch at line %d", emitLine)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("wallclock, walerr")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName(\"wallclock, walerr\") = %v, err %v", two, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("ByName(\"nonesuch\") did not fail")
	}
}
