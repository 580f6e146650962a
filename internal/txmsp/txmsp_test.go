package txmsp_test

import (
	"bytes"
	"testing"
	"time"

	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/txmsp"
)

func TestTxCodecRoundTrip(t *testing.T) {
	tx := txmsp.Tx{Ops: []txmsp.Op{
		{Kind: txmsp.OpPut, Key: "a", Value: []byte("1")},
		{Kind: txmsp.OpGet, Key: "a"},
		{Kind: txmsp.OpAdd, Key: "n", Value: chaos.U64(5)},
		{Kind: txmsp.OpDelete, Key: "old"},
	}}
	got, err := txmsp.DecodeTx(tx.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 4 || got.Ops[0].Key != "a" || got.Ops[2].Kind != txmsp.OpAdd ||
		!bytes.Equal(got.Ops[2].Value, chaos.U64(5)) {
		t.Fatalf("round trip: %+v", got)
	}
	res := txmsp.Result{Values: [][]byte{[]byte("x"), nil, []byte("z")}}
	gotR, err := txmsp.DecodeResult(res.Encode())
	if err != nil || len(gotR.Values) != 3 || string(gotR.Values[2]) != "z" {
		t.Fatalf("result round trip: %+v %v", gotR, err)
	}
}

func TestTxCodecTruncation(t *testing.T) {
	full := txmsp.Tx{Ops: []txmsp.Op{{Kind: txmsp.OpPut, Key: "key", Value: []byte("value")}}}.Encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := txmsp.DecodeTx(full[:cut]); err == nil && cut > 0 {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// txEnv is an application MSP (logging on) calling a transactional
// resource manager.
type txEnv struct {
	t      *testing.T
	net    *simnet.Network
	rm     *chaos.Store
	app    *chaos.MSP
	client *core.Client
}

func newTxEnv(t *testing.T) *txEnv {
	e := &txEnv{t: t, net: simnet.New(simnet.Config{TimeScale: 0})}
	rm, err := chaos.StartStore(txmsp.Config{ID: "ledger-db", Net: e.net, Disk: simdisk.NewDisk(simdisk.DefaultModel(0))})
	if err != nil {
		t.Fatal(err)
	}
	e.rm = rm

	dom := core.NewDomain("app", 0, 0)
	def := core.Definition{
		Methods: map[string]core.Handler{
			// deposit adds the amount to the durable balance and returns
			// the per-session operation count.
			"deposit": func(ctx *core.Ctx, amount []byte) ([]byte, error) {
				if _, err := txmsp.Exec(ctx, "ledger-db", txmsp.Tx{Ops: []txmsp.Op{{Kind: txmsp.OpAdd, Key: "balance", Value: amount}}}); err != nil {
					return nil, err
				}
				return chaos.BumpSession(ctx), nil
			},
			"balance": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
				res, err := txmsp.Exec(ctx, "ledger-db", txmsp.Tx{Ops: []txmsp.Op{{Kind: txmsp.OpGet, Key: "balance"}}})
				if err != nil {
					return nil, err
				}
				return res.Values[0], nil
			},
		},
	}
	app, err := chaos.StartMSP(core.NewConfig("app", dom, simdisk.NewDisk(simdisk.DefaultModel(0)), e.net, def))
	if err != nil {
		t.Fatal(err)
	}
	e.app = app
	e.client = core.NewClient("teller", e.net, rpc.DefaultCallOptions(0))
	return e
}

func (e *txEnv) cleanup() {
	e.app.Crash()
	e.rm.Crash()
	e.client.Close()
}

// restart crash-restarts a process: e.restart(e.app.Restart).
func (e *txEnv) restart(restart func() error) {
	e.t.Helper()
	if err := restart(); err != nil {
		e.t.Fatal(err)
	}
}

func (e *txEnv) deposit(cs *core.ClientSession, amount, wantOps uint64) {
	e.t.Helper()
	out, err := cs.Call("deposit", chaos.U64(amount))
	if err != nil {
		e.t.Fatalf("deposit: %v", err)
	}
	if chaos.AsU64(out) != wantOps {
		e.t.Fatalf("deposit ops = %d, want %d", chaos.AsU64(out), wantOps)
	}
}

func (e *txEnv) balance(cs *core.ClientSession) uint64 {
	e.t.Helper()
	out, err := cs.Call("balance", nil)
	if err != nil {
		e.t.Fatalf("balance: %v", err)
	}
	return chaos.AsU64(out)
}

func TestExactlyOnceTransactions(t *testing.T) {
	e := newTxEnv(t)
	defer e.cleanup()
	cs := e.client.Session("app")
	for i := uint64(1); i <= 5; i++ {
		e.deposit(cs, 10, i)
	}
	if got := e.balance(cs); got != 50 {
		t.Fatalf("balance = %d, want 50", got)
	}
}

func TestTransactionsSurviveRMCrash(t *testing.T) {
	e := newTxEnv(t)
	defer e.cleanup()
	cs := e.client.Session("app")
	e.deposit(cs, 100, 1)
	e.restart(e.rm.Restart)
	e.deposit(cs, 100, 2)
	if got := e.balance(cs); got != 200 {
		t.Fatalf("balance after RM crash = %d, want 200", got)
	}
}

// TestAppReplayDoesNotReexecuteTransactions is the heart of the
// integration: the application MSP crashes and replays its sessions; the
// logged transaction replies replay from the log and the durable balance
// is unchanged — no transaction runs twice.
func TestAppReplayDoesNotReexecuteTransactions(t *testing.T) {
	e := newTxEnv(t)
	defer e.cleanup()
	cs := e.client.Session("app")
	for i := uint64(1); i <= 4; i++ {
		e.deposit(cs, 25, i)
	}
	e.restart(e.app.Restart)
	// The session replays its four deposits from the log; a fifth runs
	// live. Exactly-once means the balance is 5 × 25.
	e.deposit(cs, 25, 5)
	if got := e.balance(cs); got != 125 {
		t.Fatalf("balance after app crash = %d, want 125 (transactions re-executed or lost)", got)
	}
	if v, ok := e.rm.Current().Read("balance"); !ok || chaos.AsU64(v) != 125 {
		t.Fatalf("store audit: %v %v", v, ok)
	}
}

func TestBothCrashesInterleaved(t *testing.T) {
	e := newTxEnv(t)
	defer e.cleanup()
	cs := e.client.Session("app")
	want := uint64(0)
	ops := uint64(0)
	for round := 0; round < 3; round++ {
		ops++
		want += 7
		e.deposit(cs, 7, ops)
		e.restart(e.app.Restart)
		ops++
		want += 7
		e.deposit(cs, 7, ops)
		e.restart(e.rm.Restart)
	}
	if got := e.balance(cs); got != want {
		t.Fatalf("balance = %d, want %d", got, want)
	}
}

func TestDuplicateDeliveryDedupedByStore(t *testing.T) {
	// A lossy, duplicating network delivers transaction requests twice;
	// the testable-transaction records must absorb them.
	net := simnet.New(simnet.Config{TimeScale: 0, DupRate: 0.5, LossRate: 0.1, Seed: 3})
	rmCfg := txmsp.Config{ID: "db", Net: net, Disk: simdisk.NewDisk(simdisk.DefaultModel(0))}
	rm, err := txmsp.Start(rmCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Crash()
	dom := core.NewDomain("app", 0, 0)
	def := core.Definition{
		Methods: map[string]core.Handler{
			"bump": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
				res, err := txmsp.Exec(ctx, "db", txmsp.Tx{Ops: []txmsp.Op{
					{Kind: txmsp.OpAdd, Key: "n", Value: chaos.U64(1)},
					{Kind: txmsp.OpGet, Key: "n"},
				}})
				if err != nil {
					return nil, err
				}
				return res.Values[0], nil
			},
		},
	}
	app, err := core.Start(core.NewConfig("app", dom, simdisk.NewDisk(simdisk.DefaultModel(0)), net, def))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Crash()
	client := core.NewClient("c", net, rpc.DefaultCallOptions(0))
	defer client.Close()
	cs := client.Session("app")
	for i := uint64(1); i <= 20; i++ {
		out, err := cs.Call("bump", nil)
		if err != nil {
			t.Fatalf("bump %d: %v", i, err)
		}
		if chaos.AsU64(out) != i {
			t.Fatalf("bump %d returned %d (duplicate transaction executed)", i, chaos.AsU64(out))
		}
	}
}

func TestStatelessSessionsAcceptAnySeq(t *testing.T) {
	net := simnet.New(simnet.Config{TimeScale: 0})
	rm, err := txmsp.Start(txmsp.Config{ID: "db", Net: net, Disk: simdisk.NewDisk(simdisk.DefaultModel(0))})
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Crash()
	// Talk to the RM directly with raw envelopes at arbitrary sequence
	// numbers — as a restarted caller would.
	ep := net.Endpoint("raw")
	tx := txmsp.Tx{Ops: []txmsp.Op{{Kind: txmsp.OpAdd, Key: "x", Value: chaos.U64(1)}}}
	send := func(seq uint64) {
		ep.Send("db", rpc.Request{Session: "ghost", Seq: seq, Method: "exec",
			Arg: tx.Encode(), From: ep.Addr()})
	}
	recv := func(seq uint64) {
		t.Helper()
		for {
			m := <-ep.Recv()
			if rep, ok := m.Payload.(rpc.Reply); ok && rep.Seq == seq {
				if rep.Status == rpc.StatusBusy {
					// The session was still held by the previous request's
					// worker: no result, resend as a client would.
					time.Sleep(time.Millisecond)
					send(seq)
					continue
				}
				if rep.Status != rpc.StatusOK {
					t.Fatalf("seq %d: %v %s", seq, rep.Status, rep.Payload)
				}
				return
			}
		}
	}
	send(7) // no NewSession flag, arbitrary seq: accepted
	recv(7)
	send(3) // out of order: accepted, executes (different tx id)
	recv(3)
	send(7) // duplicate: accepted, deduplicated by the store
	recv(7)
	if v, ok := rm.Read("x"); !ok || chaos.AsU64(v) != 2 {
		t.Fatalf("x = %v %v, want 2 (seq 7 executed twice or seq 3 dropped)", v, ok)
	}
}
