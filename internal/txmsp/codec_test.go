package txmsp_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mspr/internal/chaos"
	"mspr/internal/txmsp"
)

var update = flag.Bool("update", false, "rewrite testdata/codec.golden")

var (
	goldenTxs = []struct {
		name string
		tx   txmsp.Tx
	}{
		{"tx-empty", txmsp.Tx{}},
		{"tx-ops", txmsp.Tx{Ops: []txmsp.Op{
			{Kind: txmsp.OpPut, Key: "a", Value: []byte("1")},
			{Kind: txmsp.OpGet, Key: "a"},
			{Kind: txmsp.OpAdd, Key: "n", Value: chaos.U64(5)},
			{Kind: txmsp.OpDelete, Key: "old", Value: []byte{}},
		}}},
	}
	goldenResults = []struct {
		name string
		res  txmsp.Result
	}{
		{"result-empty", txmsp.Result{}},
		{"result-values", txmsp.Result{Values: [][]byte{[]byte("x"), nil, []byte("z")}}},
	}
)

// TestTxFormatPinned compares the encodings of goldenTxs and
// goldenResults with testdata/codec.golden.
func TestTxFormatPinned(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenTxs {
		fmt.Fprintf(&got, "%s %x\n", c.name, c.tx.Encode())
	}
	for _, c := range goldenResults {
		fmt.Fprintf(&got, "%s %x\n", c.name, c.res.Encode())
	}
	path := filepath.Join("testdata", "codec.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("encodings differ from %s\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

func TestTxCodecRejectsTrailingBytes(t *testing.T) {
	for _, c := range goldenTxs {
		if _, err := txmsp.DecodeTx(append(c.tx.Encode(), 0xFF)); err == nil {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
	}
	for _, c := range goldenResults {
		if _, err := txmsp.DecodeResult(append(c.res.Encode(), 0xFF)); err == nil {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
	}
}
