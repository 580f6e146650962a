package wal

import (
	"go/ast"
	"os"
	"strconv"
	"strings"
	"testing"

	"mspr/internal/invariants"
)

// TestWalStaysLayered pins what the log was split into, in the style of
// core's TestOneAbortPath: only the segment store and the anchor store
// touch files or charge the disk, only the files that hold a codec know
// a byte layout, "the frame at this offset" and "the newest valid anchor
// slot" are each written once, and no file grows back into the one that
// held all five layers.
func TestWalStaysLayered(t *testing.T) {
	_, files, err := invariants.ParseTree(".", invariants.NonTest)
	if err != nil {
		t.Fatal(err)
	}
	diskSeam := map[string]bool{"segstore.go": true, "anchor.go": true}
	codecs := map[string]bool{"frame.go": true, "segstore.go": true, "anchor.go": true}
	for name, f := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(src), "\n"); lines > 500 {
			t.Errorf("%s has %d lines, over the 500 a layer may have", name, lines)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); (path == "encoding/binary" || path == "hash/crc32") && !codecs[name] {
				t.Errorf("%s imports %s: byte layouts belong to the codecs in frame.go, segstore.go and anchor.go", name, path)
			}
		}
		if diskSeam[name] {
			continue
		}
		if invariants.Count(f, invariants.Sel("simdisk", "File")) > 0 {
			t.Errorf("%s mentions simdisk.File: files are the segment store's and the anchor store's", name)
		}
		for _, op := range []string{"OpenFile", "List", "Remove", "ChargeRead", "StartRead", "ChargeWrite"} {
			if invariants.Count(f, invariants.Call("", op)) > 0 {
				t.Errorf("%s calls %s: the disk is reached through segstore.go and anchor.go only", name, op)
			}
		}
	}
	declared := map[string]int{}
	invariants.EachFuncDecl(files, func(_ string, fn *ast.FuncDecl) { declared[fn.Name.Name]++ })
	for _, once := range []string{"frameAt", "newestSlot"} {
		if declared[once] != 1 {
			t.Errorf("%s is declared %d times, want once", once, declared[once])
		}
	}
}

// TestOneJournalFormat pins that the log is the module's one framed,
// checksummed on-disk format: no non-test package outside internal/wal
// imports hash/crc32. A package that needs a durable journal writes its
// records through a wal.Log, and so inherits its torn-tail rule, its
// mid-log corruption check and its failpoints.
func TestOneJournalFormat(t *testing.T) {
	_, files, err := invariants.ParseTree("../..", invariants.NonTest)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range files {
		if strings.HasPrefix(name, "internal/wal/") {
			continue
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "hash/crc32" {
				t.Errorf("%s imports hash/crc32: journal through a wal.Log instead of framing records by hand", name)
			}
		}
	}
}
