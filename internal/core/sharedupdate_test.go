package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mspr/internal/logrec"
	"mspr/internal/rpc"
)

// bumpDef serves "bump": add one to the shared total in one atomic update.
// inUpdate, if set, runs inside the update, between its read and its write.
func bumpDef(inUpdate func()) Definition {
	return Definition{
		Methods: map[string]Handler{
			"bump": func(ctx *Ctx, _ []byte) ([]byte, error) {
				return ctx.UpdateShared("total", func(old []byte) []byte {
					if inUpdate != nil {
						inUpdate()
					}
					return u64(asU64(old) + 1)
				})
			},
		},
		Shared: []SharedDef{{Name: "total", Initial: u64(0)}},
	}
}

// TestUpdateSharedLosesNoUpdate is the zero-fault storm that lost updates
// on every run while handlers bumped the total with a ReadShared followed
// by a WriteShared (ROADMAP P0(a)): 16 sessions × 200 bumps, no crash, on
// at least two scheduler threads. Every bump must land.
func TestUpdateSharedLosesNoUpdate(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const sessions, bumps = 16, 200
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("msp1", bumpDef(nil))
	cl := e.endClient()
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := cl.Session("msp1")
			for j := 0; j < bumps; j++ {
				if _, err := cs.Call("bump", nil); err != nil {
					t.Errorf("bump: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := asU64(srv.sharedVar("total").snapshotValue()); got != sessions*bumps {
		t.Fatalf("shared total %d after %d×%d bumps, want %d: %d updates lost", got, sessions, bumps, sessions*bumps, sessions*bumps-int(got))
	}
}

// sessionRecordTypes returns the types of the records in the session's
// position stream.
func sessionRecordTypes(t *testing.T, srv *Server, sess *Session) []logrec.Type {
	t.Helper()
	var out []logrec.Type
	for _, e := range sess.posSnapshot() {
		typ, _, err := srv.loggedRecord(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, typ)
	}
	return out
}

// TestUpdateSharedReplay: an update logs the read record and the write
// record of Fig. 8, adjacent, and replay consumes exactly those two.
func TestUpdateSharedReplay(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("msp1", bumpDef(nil), func(c *Config) { c.noRecoverySweep = true })
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 3; want++ {
		if got := asU64(mustCall(t, cs, "bump", nil)); got != want {
			t.Fatalf("bump = %d, want %d", got, want)
		}
	}
	want := []logrec.Type{logrec.TSessionStart,
		logrec.TReqReceive, logrec.TSharedRead, logrec.TSharedWrite,
		logrec.TReqReceive, logrec.TSharedRead, logrec.TSharedWrite,
		logrec.TReqReceive, logrec.TSharedRead, logrec.TSharedWrite}
	got := sessionRecordTypes(t, srv, srv.sessions.get(cs.ID()))
	if len(got) != len(want) {
		t.Fatalf("session records %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("session records %v, want %v", got, want)
		}
	}

	srv = e.restart("msp1")
	end := srv.log.Next()
	if got := asU64(mustCall(t, cs, "bump", nil)); got != 4 { // lazy replay of all three, then a live fourth
		t.Fatalf("bump after restart = %d, want 4", got)
	}
	if n := srv.stats.RequestsReplayed.Load(); n != 3 {
		t.Fatalf("%d requests replayed, want 3", n)
	}
	// The fourth bump appended its three records; replay appended none.
	tail := sessionRecordTypes(t, srv, srv.sessions.get(cs.ID()))
	if len(tail) != len(want)+3 {
		t.Fatalf("session records after replay and one live bump: %v", tail)
	}
	for _, e := range srv.sessions.get(cs.ID()).posSnapshot()[:len(want)] {
		if e.lsn >= end {
			t.Fatalf("replay appended a record at %d (log ended at %d before it)", e.lsn, end)
		}
	}
}

// TestUpdateSharedTornByCrash: a crash lands between an update's read
// record and its write record, and only the read survives. Replay must
// redo the whole update against the variable as it is by then — pairing
// the logged read with a live write would overwrite what other sessions
// wrote meanwhile — and a later replay must get past the dangling read.
func TestUpdateSharedTornByCrash(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	var tear atomic.Bool
	var srv *Server
	def := bumpDef(func() {
		if tear.CompareAndSwap(true, false) {
			// The read record is in the log: make it durable, then die
			// before the write record can follow it.
			if err := srv.log.Flush(srv.log.LastAppended()); err != nil {
				t.Errorf("flush inside the update: %v", err)
			}
			srv.halt()
		}
	})
	srv = e.start("msp1", def, func(c *Config) { c.noRecoverySweep = true })
	cli := e.net.Endpoint("cli")
	torn := rpc.Request{Session: "torn#1", Seq: 1, Method: "bump", NewSession: true, From: cli.Addr()}

	tear.Store(true)
	sendExpectingNoReply(t, cli, torn)
	if tear.Load() {
		t.Fatal("the update never ran")
	}
	srv = e.restart("msp1")
	sess := srv.sessions.get("torn#1")
	if sess == nil {
		t.Fatal("session lost: its start and receive records were flushed with the read")
	}
	if got := sessionRecordTypes(t, srv, sess); len(got) != 3 || got[2] != logrec.TSharedRead {
		t.Fatalf("surviving records %v, want start, receive and the dangling read", got)
	}

	// Two other updates land before the torn session is touched again.
	other := e.endClient().Session("msp1")
	mustCall(t, other, "bump", nil)
	mustCall(t, other, "bump", nil)

	if rep := callRaw(t, cli, torn); rep.Status != rpc.StatusOK || asU64(rep.Payload) != 3 {
		t.Fatalf("redone update: status %v, total %d, want 3 (the two bumps since, plus this one)", rep.Status, asU64(rep.Payload))
	}
	if got := asU64(srv.sharedVar("total").snapshotValue()); got != 3 {
		t.Fatalf("shared total %d, want 3", got)
	}

	// The stream now holds the dangling read, then the redo's read and
	// write. Another incarnation replays past all three.
	srv = e.restart("msp1")
	torn.Seq, torn.NewSession = 2, false
	if rep := callRaw(t, cli, torn); rep.Status != rpc.StatusOK || asU64(rep.Payload) != 4 {
		t.Fatalf("bump after replaying the redo: status %v, total %d, want 4", rep.Status, asU64(rep.Payload))
	}
	if n := srv.stats.RequestsReplayed.Load(); n != 1 {
		t.Fatalf("%d requests replayed, want 1", n)
	}
}
