package baselines

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/rpc"
	"mspr/internal/sdb"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite testdata/vars.golden")

func counterDef() core.Definition {
	return core.Definition{
		Methods: map[string]core.Handler{
			"inc": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				return chaos.BumpSession(ctx), nil
			},
		},
	}
}

func TestEncodeDecodeVarsRoundTrip(t *testing.T) {
	prop := func(keys []string, vals [][]byte) bool {
		m := make(map[string][]byte)
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			m[k] = append([]byte(nil), v...)
		}
		got := decodeVars(encodeVars(m))
		if len(got) != len(m) {
			return false
		}
		for k, v := range m {
			if !bytes.Equal(got[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestVarsFormatPinned compares the encodings of fixed session-variable
// maps with testdata/vars.golden: Psession keeps them in its database and
// the state server on the wire, so the bytes must not move.
func TestVarsFormatPinned(t *testing.T) {
	cases := []struct {
		name string
		m    map[string][]byte
	}{
		{"empty", map[string][]byte{}},
		{"vars", map[string][]byte{
			"n":     chaos.U64(7),
			"state": bytes.Repeat([]byte{0xAB}, 200),
			"nil":   nil,
			"":      []byte("k"),
		}},
	}
	var got strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&got, "%s %x\n", c.name, encodeVars(c.m))
	}
	path := filepath.Join("testdata", "vars.golden")
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

func TestDecodeVarsCorruptYieldsEmpty(t *testing.T) {
	if m := decodeVars([]byte{0xFF, 0xFF, 0xFF}); len(m) > 1 {
		t.Fatalf("corrupt input decoded to %v", m)
	}
	if m := decodeVars(nil); len(m) != 0 {
		t.Fatalf("nil input decoded to %v", m)
	}
}

// startBaselineMSP runs a NoLog core server with the given definition.
func startBaselineMSP(t *testing.T, net *simnet.Network, id string, def core.Definition) *core.Server {
	t.Helper()
	dom := core.NewDomain("dom-"+id, 0, 0)
	cfg := core.NewConfig(id, dom, simdisk.NewDisk(simdisk.DefaultModel(0)), net, def)
	cfg.Logging = false
	s, err := core.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPsessionPersistsSessionStateAcrossMSPRestart(t *testing.T) {
	net := simnet.New(simnet.Config{TimeScale: 0})
	dbDisk := simdisk.NewDisk(simdisk.DefaultModel(0))
	db, err := sdb.Open(dbDisk, "db")
	if err != nil {
		t.Fatal(err)
	}
	def := WrapPsession(counterDef(), db)
	s := startBaselineMSP(t, net, "msp", def)
	client := core.NewClient("c", net, rpc.DefaultCallOptions(0))
	defer client.Close()
	cs := client.Session("msp")
	for want := uint64(1); want <= 3; want++ {
		out, err := cs.Call("inc", nil)
		if err != nil || chaos.AsU64(out) != want {
			t.Fatalf("inc: (%v, %v), want %d", chaos.AsU64(out), err, want)
		}
	}
	// Restart the MSP without any log: the in-memory session is gone, but
	// the DB state survives. A new session resuming the same session ID
	// is not possible (no recovery infrastructure), so a fresh session
	// starts — its state is independent, demonstrating Psession's
	// per-session persistence boundary.
	s.Crash()
	db2, err := sdb.Open(dbDisk, "db")
	if err != nil {
		t.Fatal(err)
	}
	_ = startBaselineMSP(t, net, "msp", WrapPsession(counterDef(), db2))
	if db2.Len() == 0 {
		t.Fatal("DB lost the session state")
	}
}

func TestPsessionTwoTransactionsPerRequest(t *testing.T) {
	net := simnet.New(simnet.Config{TimeScale: 0})
	dbDisk := simdisk.NewDisk(simdisk.DefaultModel(0))
	db, _ := sdb.Open(dbDisk, "db")
	def := WrapPsession(counterDef(), db)
	_ = startBaselineMSP(t, net, "msp", def)
	client := core.NewClient("c", net, rpc.DefaultCallOptions(0))
	defer client.Close()
	cs := client.Session("msp")
	before := dbDisk.Stats()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := cs.Call("inc", nil); err != nil {
			t.Fatal(err)
		}
	}
	after := dbDisk.Stats()
	if w := after.Writes - before.Writes; w != n {
		t.Fatalf("expected %d write transactions, got %d", n, w)
	}
	if r := after.Reads - before.Reads; r != n {
		t.Fatalf("expected %d read transactions, got %d", n, r)
	}
}

func TestStateServerRoundTrip(t *testing.T) {
	net := simnet.New(simnet.Config{TimeScale: 0})
	ss := NewStateServer("ss", net)
	defer ss.Close()
	sc := NewStateClient("cli", "ss", net, 0)
	defer sc.Close()
	sc.Store("sess1", map[string][]byte{"k": []byte("v")})
	got := sc.Fetch("sess1")
	if string(got["k"]) != "v" {
		t.Fatalf("fetch = %v", got)
	}
	if len(sc.Fetch("missing")) != 0 {
		t.Fatal("missing session should be empty")
	}
}

func TestStateServerWrappedMSP(t *testing.T) {
	net := simnet.New(simnet.Config{TimeScale: 0})
	ss := NewStateServer("ss", net)
	defer ss.Close()
	sc := NewStateClient("msp-sscli", "ss", net, 0)
	defer sc.Close()
	def := WrapStateServer(counterDef(), sc)
	_ = startBaselineMSP(t, net, "msp", def)
	client := core.NewClient("c", net, rpc.DefaultCallOptions(0))
	defer client.Close()
	cs := client.Session("msp")
	for want := uint64(1); want <= 5; want++ {
		out, err := cs.Call("inc", nil)
		if err != nil || chaos.AsU64(out) != want {
			t.Fatalf("inc = (%d, %v), want %d", chaos.AsU64(out), err, want)
		}
	}
	if ss.Len() != 1 {
		t.Fatalf("state server holds %d sessions, want 1", ss.Len())
	}
}

func TestStateServerConcurrentClients(t *testing.T) {
	net := simnet.New(simnet.Config{TimeScale: 0})
	ss := NewStateServer("ss", net)
	defer ss.Close()
	sc := NewStateClient("cli", "ss", net, 0)
	defer sc.Close()
	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			id := string(rune('a' + i))
			for j := 0; j < 20; j++ {
				sc.Store(id, map[string][]byte{"v": {byte(j)}})
				got := sc.Fetch(id)
				if got["v"][0] != byte(j) {
					done <- false
					return
				}
			}
			done <- true
		}(i)
	}
	for i := 0; i < 8; i++ {
		if !<-done {
			t.Fatal("concurrent state-server access corrupted state")
		}
	}
}
