package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mspr/internal/rpc"
	"mspr/internal/simnet"
)

// crashySystem is a two-MSP domain whose method1 can crash msp2 at the
// paper's §5.4 injection point (after msp1 receives method2's reply but
// before the distributed flush), making msp1's session an orphan.
type crashySystem struct {
	e        *testEnv
	armCrash atomic.Bool
	crashMu  sync.Mutex
	crashWG  sync.WaitGroup
}

func newCrashySystem(t *testing.T, mut ...func(*Config)) *crashySystem {
	cs := &crashySystem{e: newTestEnv(t)}
	def1 := Definition{
		Methods: map[string]Handler{
			"method1": func(ctx *Ctx, arg []byte) ([]byte, error) {
				if _, err := ctx.Call("msp2", "method2", arg); err != nil {
					return nil, err
				}
				if cs.armCrash.CompareAndSwap(true, false) {
					// Synchronous restart makes the test deterministic:
					// msp2's buffered records (including the reply state
					// just received) are lost before the distributed
					// flush below runs, so this session is an orphan.
					cs.crashMu.Lock()
					cs.e.restart("msp2")
					cs.crashMu.Unlock()
				}
				v, err := ctx.ReadShared("sv1")
				if err != nil {
					return nil, err
				}
				if err := ctx.WriteShared("sv1", u64(asU64(v)+1)); err != nil {
					return nil, err
				}
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return u64(n), nil
			},
		},
		Shared: []SharedDef{{Name: "sv1", Initial: u64(0)}},
	}
	def2 := Definition{
		Methods: map[string]Handler{
			"method2": func(ctx *Ctx, arg []byte) ([]byte, error) {
				v, err := ctx.ReadShared("sv2")
				if err != nil {
					return nil, err
				}
				if err := ctx.WriteShared("sv2", u64(asU64(v)+1)); err != nil {
					return nil, err
				}
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return u64(n), nil
			},
		},
		Shared: []SharedDef{{Name: "sv2", Initial: u64(0)}},
	}
	cs.e.start("msp1", def1, mut...)
	cs.e.start("msp2", def2, mut...)
	return cs
}

// TestOrphanRecoveryViaInjectedCrash reproduces the paper's §5.4
// scenario: msp2 dies holding buffered log records, the distributed
// flush before reply1 fails, and SE1 performs orphan recovery. The
// request still completes exactly once.
func TestOrphanRecoveryViaInjectedCrash(t *testing.T) {
	cs := newCrashySystem(t)
	defer cs.e.cleanup()
	sess := cs.e.endClient().Session("msp1")
	for want := uint64(1); want <= 3; want++ {
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("warmup #%d returned %d", want, got)
		}
	}
	cs.armCrash.Store(true)
	if got := asU64(mustCall(t, sess, "method1", nil)); got != 4 {
		t.Fatalf("crash-injected request returned %d, want 4", got)
	}
	cs.crashWG.Wait()
	msp1 := cs.e.srvs["msp1"]
	if msp1.Stats().OrphanRecoveries.Load() == 0 {
		t.Fatal("msp1 never performed orphan recovery — the crash was not injected at the right point")
	}
	for want := uint64(5); want <= 8; want++ {
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("post-recovery #%d returned %d", want, got)
		}
	}
}

// TestEOSRecordsSurviveMSPCrash: after an orphan recovery writes an EOS
// record, crash msp1 itself. The analysis scan must prune the skipped
// records via the EOS record so replay does not double-execute them
// (Fig. 11 / §4.1 "EOS Found").
func TestEOSRecordsSurviveMSPCrash(t *testing.T) {
	cs := newCrashySystem(t)
	defer cs.e.cleanup()
	sess := cs.e.endClient().Session("msp1")
	for want := uint64(1); want <= 2; want++ {
		mustCall(t, sess, "method1", nil)
	}
	cs.armCrash.Store(true)
	if got := asU64(mustCall(t, sess, "method1", nil)); got != 3 {
		t.Fatalf("crash-injected request returned %d", got)
	}
	cs.crashWG.Wait()
	// A couple more requests after the orphan recovery.
	for want := uint64(4); want <= 5; want++ {
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("request #%d returned %d", want, got)
		}
	}
	// Flush and crash msp1: the EOS record is durable, so scan-time
	// pruning applies. Replay must land on exactly the same state.
	if err := cs.e.srvs["msp1"].Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cs.e.start("msp1", cs.e.defs["msp1"])
	if got := asU64(mustCall(t, sess, "method1", nil)); got != 6 {
		t.Fatalf("after msp1 crash recovery request returned %d, want 6", got)
	}
}

// TestMultipleConcurrentCrashes exercises repeated crash cycles of msp2
// with activity in between — the "orphan recovery upon multiple crashes"
// scenarios of §4.1.
func TestMultipleConcurrentCrashes(t *testing.T) {
	cs := newCrashySystem(t)
	defer cs.e.cleanup()
	sess := cs.e.endClient().Session("msp1")
	want := uint64(0)
	for round := 0; round < 4; round++ {
		for i := 0; i < 2; i++ {
			want++
			if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
				t.Fatalf("round %d: request returned %d, want %d", round, got, want)
			}
		}
		cs.armCrash.Store(true)
		want++
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("round %d crash request returned %d, want %d", round, got, want)
		}
		cs.crashWG.Wait()
	}
}

// TestCallerCrashMidRequestCompletesExactlyOnce crashes msp1 while it is
// processing a request (after logging the receive but before replying).
// Replay reconstructs the partial execution, switches to live mode at the
// end of the log, completes the method for real and the resent request
// yields exactly one execution.
func TestCallerCrashMidRequestCompletesExactlyOnce(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	var crashNow atomic.Bool
	var restartWG sync.WaitGroup
	def2 := Definition{
		Methods: map[string]Handler{
			"method2": func(ctx *Ctx, arg []byte) ([]byte, error) {
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return u64(n), nil
			},
		},
	}
	def1 := Definition{
		Methods: map[string]Handler{
			"method1": func(ctx *Ctx, arg []byte) ([]byte, error) {
				out, err := ctx.Call("msp2", "method2", arg)
				if err != nil {
					return nil, err
				}
				if crashNow.CompareAndSwap(true, false) {
					// Crash msp1 underneath its own request. The reply
					// from msp2 is already logged (buffered) — and lost.
					restartWG.Add(1)
					go func() {
						defer restartWG.Done()
						e.restart("msp1")
					}()
					// Wait so the request cannot finish before the crash.
					time.Sleep(50 * time.Millisecond)
				}
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return append(u64(n), out...), nil
			},
		},
	}
	e.start("msp2", def2)
	e.start("msp1", def1)
	sess := e.endClient().Session("msp1")
	for want := uint64(1); want <= 2; want++ {
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("warmup #%d returned %d", want, got)
		}
	}
	crashNow.Store(true)
	out := mustCall(t, sess, "method1", nil)
	restartWG.Wait()
	if got := asU64(out); got != 3 {
		t.Fatalf("mid-request crash: method1 returned %d, want 3", got)
	}
	// The nested method2 at msp2 must also have run exactly three times.
	if got := asU64(out[8:]); got != 3 {
		t.Fatalf("method2 executed %d times, want 3 (duplicate or lost nested call)", got)
	}
	if got := asU64(mustCall(t, sess, "method1", nil)); got != 4 {
		t.Fatalf("after recovery returned %d, want 4", got)
	}
}

// TestSharedVariableRollbackToCheckpoint: a shared-variable checkpoint
// breaks the backward chain; an orphaned value rolls back to the
// checkpointed value, not further.
func TestSharedVariableRollbackToCheckpoint(t *testing.T) {
	cs := newCrashySystem(t, func(c *Config) { c.SVCkptEvery = 2 })
	defer cs.e.cleanup()
	sess := cs.e.endClient().Session("msp1")
	for i := 0; i < 6; i++ {
		mustCall(t, sess, "method1", nil)
	}
	cs.armCrash.Store(true)
	mustCall(t, sess, "method1", nil)
	cs.crashWG.Wait()
	// Shared state at msp2 must be exactly the number of method2
	// executions, regardless of rollbacks/checkpoints.
	for want := uint64(8); want <= 10; want++ {
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("request returned %d, want %d", got, want)
		}
	}
	sv := cs.e.srvs["msp2"].sharedVar("sv2")
	if got := asU64(sv.snapshotValue()); got != 10 {
		t.Fatalf("sv2 = %d after 10 method2 executions", got)
	}
}

// TestForcedCheckpointsAdvanceScanStart: an idle session is force-
// checkpointed after ForceCkptAfter MSP checkpoints (§3.4).
func TestForcedCheckpointsAdvanceScanStart(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef(), func(c *Config) {
		c.MSPCkptEvery = 512 // very frequent MSP checkpoints
		c.ForceCkptAfter = 2
		c.SessionCkptThreshold = 1 << 30 // sessions never self-checkpoint
	})
	c := e.endClient()
	idle := c.Session("msp1")
	mustCall(t, idle, "inc", nil) // one request, then idle forever
	busy := c.Session("msp1")
	for i := 0; i < 60; i++ {
		mustCall(t, busy, "inc", nil)
	}
	// Give the async checkpointer a moment.
	deadline := time.Now().Add(5 * time.Second)
	srv := e.srvs["msp1"]
	for srv.Stats().SessionCkpts.Load() == 0 && time.Now().Before(deadline) {
		mustCall(t, busy, "inc", nil)
	}
	if srv.Stats().SessionCkpts.Load() == 0 {
		t.Fatal("idle session was never force-checkpointed")
	}
	// And everything still recovers.
	e.restart("msp1")
	if got := asU64(mustCall(t, idle, "inc", nil)); got != 2 {
		t.Fatalf("idle session after recovery returned %d, want 2", got)
	}
}

// TestBusyRepliesDuringRecovery: while a session replays, its client's
// requests get StatusBusy and eventually succeed.
func TestBusyRepliesDuringRecovery(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	sess := e.endClient().Session("msp1")
	for i := 0; i < 30; i++ {
		mustCall(t, sess, "inc", nil)
	}
	e.restart("msp1")
	// The resend loop hides Busy replies; correctness is the counter.
	if got := asU64(mustCall(t, sess, "inc", nil)); got != 31 {
		t.Fatalf("inc after recovery = %d", got)
	}
}

// TestDuplicateRequestGetsBufferedReply sends the same request envelope
// twice at the RPC layer and expects the identical buffered reply rather
// than a second execution (§3.1).
func TestDuplicateRequestGetsBufferedReply(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	ep := e.net.Endpoint("raw-client")
	req := rpc.Request{Session: "raw#1", Seq: 1, Method: "inc", NewSession: true, From: ep.Addr()}
	first := callRaw(t, ep, req)
	second := callRaw(t, ep, req) // duplicate of an executed request
	if asU64(first.Payload) != 1 || asU64(second.Payload) != 1 {
		t.Fatalf("duplicate executed again: %d then %d", asU64(first.Payload), asU64(second.Payload))
	}
	// The next sequence number executes normally.
	req.Seq, req.NewSession = 2, false
	if rep := callRaw(t, ep, req); asU64(rep.Payload) != 2 {
		t.Fatalf("next request returned %d", asU64(rep.Payload))
	}
}

// TestAncientAndFutureSequencesIgnored: requests far behind or ahead of
// the expected sequence number produce no execution and no reply.
func TestAncientAndFutureSequencesIgnored(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	ep := e.net.Endpoint("raw-client2")
	mk := func(seq uint64, first bool) rpc.Request {
		return rpc.Request{Session: "raw#2", Seq: seq, Method: "inc", NewSession: first, From: ep.Addr()}
	}
	callRaw(t, ep, mk(1, true))
	callRaw(t, ep, mk(2, false))
	ep.Send("msp1", mk(1, false)) // ancient: ignored
	ep.Send("msp1", mk(9, false)) // future: ignored
	// Either may reach the session while request 2's worker still holds
	// it and be answered Busy: that envelope carries no result.
	quiet := time.After(50 * time.Millisecond)
	for waiting := true; waiting; {
		select {
		case m := <-ep.Recv():
			if rep, ok := m.Payload.(rpc.Reply); !ok || rep.Status != rpc.StatusBusy {
				t.Fatalf("unexpected reply %+v", m.Payload)
			}
		case <-quiet:
			waiting = false
		}
	}
	if rep := callRaw(t, ep, mk(3, false)); asU64(rep.Payload) != 3 {
		t.Fatalf("request 3 returned %d (out-of-order damage)", asU64(rep.Payload))
	}
}

func awaitReply(t *testing.T, ep *simnet.Endpoint, seq uint64) rpc.Reply {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-ep.Recv():
			rep, ok := m.Payload.(rpc.Reply)
			if ok && rep.Seq == seq {
				return rep
			}
		case <-deadline:
			t.Fatalf("no reply for seq %d", seq)
		}
	}
}

// TestKnowledgeCatchUpAfterMissedBroadcast: msp2 crashes and recovers
// while msp1 is down; on restart msp1 learns msp2's recovered state
// number from the broadcast's knowledge exchange and still detects its
// orphan sessions.
func TestKnowledgeCatchUpAfterMissedBroadcast(t *testing.T) {
	cs := newCrashySystem(t)
	defer cs.e.cleanup()
	sess := cs.e.endClient().Session("msp1")
	for want := uint64(1); want <= 3; want++ {
		mustCall(t, sess, "method1", nil)
	}
	// Take msp1 down, crash-and-restart msp2 (its broadcast finds msp1
	// dead), then bring msp1 back.
	cs.e.srvs["msp1"].Crash()
	cs.e.restart("msp2")
	cs.e.start("msp1", cs.e.defs["msp1"])
	for want := uint64(4); want <= 6; want++ {
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("after missed broadcast: request returned %d, want %d", got, want)
		}
	}
}

// TestRepeatedCrashStorm hammers both MSPs with alternating crashes under
// continuous load on several sessions.
func TestRepeatedCrashStorm(t *testing.T) {
	cs := newCrashySystem(t, func(c *Config) { c.SessionCkptThreshold = 8 << 10 })
	defer cs.e.cleanup()
	client := cs.e.endClient()
	const sessions = 4
	const perSession = 12
	errc := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func() {
			sess := client.Session("msp1")
			for k := uint64(1); k <= perSession; k++ {
				out, err := sess.Call("method1", nil)
				if err != nil {
					errc <- err
					return
				}
				if asU64(out) != k {
					errc <- fmt.Errorf("session %s: got %d want %d", sess.ID(), asU64(out), k)
					return
				}
			}
			errc <- nil
		}()
	}
	// Crash msp2 periodically while the storm runs.
	stop := make(chan struct{})
	var stormWG sync.WaitGroup
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
				cs.crashMu.Lock()
				cs.e.restart("msp2")
				cs.crashMu.Unlock()
			}
		}
	}()
	for i := 0; i < sessions; i++ {
		if err := <-errc; err != nil {
			close(stop)
			stormWG.Wait()
			t.Fatal(err)
		}
	}
	close(stop)
	stormWG.Wait()
}
