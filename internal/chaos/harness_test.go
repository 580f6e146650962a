package chaos

import (
	"go/ast"
	"go/token"
	"path/filepath"
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

// TestNoFailpointLeftBehind: every FP* constant the engine declares is
// fired by the storms (it is in CrashSurface) or excluded below with the
// reason. A crash point nobody injects is a recovery path nobody runs —
// the two tables this one replaced fired 8 and 12 of 22 and shared 4.
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
	declared := 0
	for path, f := range mainModuleFiles(t) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") ||
			dir != "internal/core" && dir != "internal/wal" && dir != "internal/simdisk" && dir != "internal/sdb" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "FP") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				point, _ := strconv.Unquote(lit.Value)
				declared++
				switch {
				case fired[point] && excluded[point] != "":
					t.Errorf("%s (%s) is both in CrashSurface and excluded", name.Name, path)
				case !fired[point] && excluded[point] == "":
					t.Errorf("%s = %q (%s) is in neither CrashSurface nor the exclusion list: no storm ever fires it", name.Name, point, path)
				}
			}
			return true
		})
	}
	if declared < len(CrashSurface) {
		t.Fatalf("found %d FP* constants for a %d-row table: the scan is broken", declared, len(CrashSurface))
	}
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
