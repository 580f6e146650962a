package core

import (
	"bytes"
	"errors"
	"go/ast"
	"sync/atomic"
	"testing"
	"time"

	"mspr/internal/failpoint"
	"mspr/internal/invariants"
	"mspr/internal/rpc"
	"mspr/internal/simnet"
	"mspr/internal/wal"
)

// sendExpectingNoReply sends req from ep to msp1 and fails if a reply for
// it arrives within the grace period: a request that ran into a dead log
// must be dropped silently so the client resends to the next incarnation.
// A Busy envelope is not an answer: the session dispatcher sends one when
// the request reaches a session a worker still holds, it carries no
// result, and the request is resent on it, as a client would — for two
// seconds at most: an MSP that answers Busy to every resend over a dead
// log defers the request instead of dropping it, and the test fails
// instead of resending forever.
func sendExpectingNoReply(t *testing.T, ep *simnet.Endpoint, req rpc.Request) {
	t.Helper()
	ep.Send("msp1", req)
	grace, busyFor := time.After(100*time.Millisecond), time.After(2*time.Second)
	for {
		select {
		case <-busyFor:
			t.Fatalf("seq %d still answered Busy after 2s from an MSP whose log is dead; want it dropped", req.Seq)
		case m := <-ep.Recv():
			rep, ok := m.Payload.(rpc.Reply)
			if !ok || rep.Seq != req.Seq {
				continue
			}
			if rep.Status != rpc.StatusBusy {
				t.Fatalf("got a reply (status %v) for seq %d from an MSP whose log is dead", rep.Status, req.Seq)
			}
			time.Sleep(time.Millisecond)
			ep.Send("msp1", req)
			grace = time.After(100 * time.Millisecond)
		case <-grace:
			return
		}
	}
}

// callRaw sends req from ep to msp1 and returns its reply, resending while
// the MSP answers Busy (a session still replaying after a restart).
func callRaw(t *testing.T, ep *simnet.Endpoint, req rpc.Request) rpc.Reply {
	t.Helper()
	return callRawTo(t, ep, "msp1", req)
}

func callRawTo(t *testing.T, ep *simnet.Endpoint, target simnet.Addr, req rpc.Request) rpc.Reply {
	t.Helper()
	for {
		ep.Send(target, req)
		if rep := awaitReply(t, ep, req.Seq); rep.Status != rpc.StatusBusy {
			return rep
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadLogOutsideHandlerDropsRequest closes the three windows where an
// append on the engine's own stack — outside any service method — used to
// panic past every recover() and take the process down: the log dies
// after handleRequest's state check said "running" and before the
// ReqReceive append, the SessionEnd append, or the shared-variable
// checkpoint append reached from forceStaleCheckpoints. In each, the
// request caught by the dead log must get no reply, and its resend to the
// next incarnation must be served exactly once.
func TestDeadLogOutsideHandlerDropsRequest(t *testing.T) {
	const sid = "window#1"
	cases := []struct {
		name string
		// kill leaves the server believing it is running over a log that
		// fails the append under test.
		kill func(t *testing.T, srv *Server, fp *failpoint.Registry)
		req  rpc.Request // sent after kill; seq 2 of session sid
		// receiveLogged: the request's ReqReceive append must still land,
		// so that the failing append is the one after it.
		receiveLogged bool
	}{
		{
			name: "ReqReceive",
			kill: func(t *testing.T, srv *Server, _ *failpoint.Registry) { srv.log.Close() },
			req:  rpc.Request{Method: "sharedInc"},
		},
		{
			// The End's receive record, carrying an argument as large as
			// the log buffer, is appended into the empty buffer; the
			// SessionEnd append right behind it then needs a flush first,
			// and the armed flush crash wedges the log under it.
			name: "SessionEnd",
			kill: func(t *testing.T, srv *Server, fp *failpoint.Registry) { fp.Enable(wal.FPFlushCrash) },
			req:  rpc.Request{EndSession: true, Arg: bytes.Repeat([]byte{0xee}, 64<<10)},

			receiveLogged: true,
		},
		{
			// The variable's dependencies are already durable, so the
			// checkpoint's flush succeeds on the closed log and the
			// checkpoint record's append is what meets it.
			name: "SVCheckpoint",
			kill: func(t *testing.T, srv *Server, _ *failpoint.Registry) {
				srv.log.Close()
				sv := srv.sharedVar("total")
				for i := 0; i < srv.cfg.ForceCkptAfter; i++ {
					sv.bumpMSPCkptAge()
				}
				ckpts := srv.stats.SVCkpts.Load()
				srv.forceStaleCheckpoints()
				if srv.stats.SVCkpts.Load() != ckpts {
					t.Fatal("shared-variable checkpoint succeeded on a closed log")
				}
			},
			req: rpc.Request{Method: "sharedInc"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEnv(t)
			defer e.cleanup()
			fp := failpoint.New(1)
			srv := e.start("msp1", counterDef(), func(c *Config) { c.Disk.SetFailpoints(fp) })
			cli := e.net.Endpoint("cli")

			cli.Send("msp1", rpc.Request{Session: sid, Seq: 1, Method: "sharedInc", NewSession: true, From: cli.Addr()})
			if rep := awaitReply(t, cli, 1); rep.Status != rpc.StatusOK || asU64(rep.Payload) != 1 {
				t.Fatalf("first sharedInc: status %v, total %d", rep.Status, asU64(rep.Payload))
			}

			tc.kill(t, srv, fp)
			before := srv.log.Next()
			req := tc.req
			req.Session, req.Seq, req.From = sid, 2, cli.Addr()
			sendExpectingNoReply(t, cli, req)
			if landed := srv.log.Next() > before; landed != tc.receiveLogged {
				t.Fatalf("receive record appended = %v, want %v", landed, tc.receiveLogged)
			}

			fp.DisableAll()
			srv = e.restart("msp1")
			wantTotal := uint64(1) // what the resent request leaves in "total"
			if !req.EndSession {
				wantTotal = 2
			}
			for attempt := 0; attempt < 2; attempt++ { // the second resend must hit the dedup path
				rep := callRaw(t, cli, req)
				if rep.Status != rpc.StatusOK {
					t.Fatalf("resend %d: status %v (%s)", attempt, rep.Status, rep.Payload)
				}
				if !req.EndSession && asU64(rep.Payload) != wantTotal {
					t.Fatalf("resend %d: total %d, want %d", attempt, asU64(rep.Payload), wantTotal)
				}
			}
			if req.EndSession && srv.sessions.get(sid) != nil {
				t.Fatal("session still in the table after its End was served")
			}
			fresh := e.endClient().Session("msp1")
			if got := asU64(mustCall(t, fresh, "sharedInc", nil)); got != wantTotal+1 {
				t.Fatalf("total after recovery = %d, want %d: the resent request did not execute exactly once", got, wantTotal+1)
			}
		})
	}
}

// TestDeadLogFlushInsideHandlerSendsNoReply: the log dies under a flush a
// Ctx call performs on the handler's behalf — the before-send flush of a
// call that leaves the domain, the one such flush left now that shared-
// variable checkpoints run in the background. The flush error must abort
// the method like a failed append does: handed to the handler it comes back
// as an application error, and an intra-domain session's reply needs no
// flush of its own, so the dead incarnation would send it as the request's
// final answer while the next incarnation executes the request again.
func TestDeadLogFlushInsideHandlerSendsNoReply(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	fp := failpoint.New(1)
	def := bumpDef(nil)
	bump := def.Methods["bump"]
	def.Methods["bumpAndTell"] = func(ctx *Ctx, _ []byte) ([]byte, error) {
		total, err := bump(ctx, nil)
		if err != nil {
			return nil, err
		}
		if _, err := ctx.Call("far", "inc", nil); err != nil {
			return nil, err
		}
		return total, nil
	}
	e.start("msp1", def, func(c *Config) { c.Disk.SetFailpoints(fp) })
	e.start("far", counterDef(), func(c *Config) { c.Domain = NewDomain("elsewhere", 0, 0) })
	cli := e.net.Endpoint("cli")
	req := rpc.Request{Session: "intra#1", Seq: 1, Method: "bumpAndTell", NewSession: true, HasDV: true, From: cli.Addr()}
	cli.Send("msp1", req)
	if rep := awaitReply(t, cli, 1); rep.Status != rpc.StatusOK || asU64(rep.Payload) != 1 {
		t.Fatalf("first bumpAndTell: status %v, total %d", rep.Status, asU64(rep.Payload))
	}

	fp.Enable(wal.FPFlushCrash)
	req.Seq, req.NewSession = 2, false
	sendExpectingNoReply(t, cli, req)

	fp.DisableAll()
	e.restart("msp1")
	if rep := callRaw(t, cli, req); rep.Status != rpc.StatusOK || asU64(rep.Payload) != 2 {
		t.Fatalf("resent bumpAndTell: status %v (%s), total %d, want OK and 2", rep.Status, rep.Payload, asU64(rep.Payload))
	}
	if got := asU64(mustCall(t, e.endClient().Session("msp1"), "bump", nil)); got != 3 {
		t.Fatalf("total after recovery = %d, want 3: the resent request did not execute exactly once", got)
	}
}

// TestResentEndIsAcknowledged: End is idempotent. The first End's OK is
// dropped on the floor; the resend finds no session — finishEndSession
// already deleted it — and must be acknowledged again, not answered
// Rejected (which rpc.Call takes as final).
func TestResentEndIsAcknowledged(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	cli := e.net.Endpoint("cli")
	callRaw(t, cli, rpc.Request{Session: "end#1", Seq: 1, Method: "inc", NewSession: true, From: cli.Addr()})

	end := rpc.Request{Session: "end#1", Seq: 2, EndSession: true, From: cli.Addr()}
	callRaw(t, cli, end) // the reply the client never saw
	if rep := callRaw(t, cli, end); rep.Status != rpc.StatusOK {
		t.Fatalf("resent End: status %v, want OK", rep.Status)
	}
	// A request that is not an End still needs its session.
	if rep := callRaw(t, cli, rpc.Request{Session: "end#1", Seq: 3, Method: "inc", From: cli.Addr()}); rep.Status != rpc.StatusRejected {
		t.Fatalf("request on an ended session: status %v, want Rejected", rep.Status)
	}
}

// TestOneAbortPath pins the structure the abort path was reduced to: one
// recover() in the package (runMethod) and one place that builds the
// unwind sentinel (abortMethod). A second recover site or a second kind
// of sentinel panic is how appends ended up outside every boundary.
func TestOneAbortPath(t *testing.T) {
	_, files, err := invariants.ParseTree(".", invariants.NonTest)
	if err != nil {
		t.Fatal(err)
	}
	recovers := map[string]int{}  // enclosing function → recover() calls
	sentinels := map[string]int{} // enclosing function → methodAbort{} literals
	invariants.EachFuncDecl(files, func(_ string, fn *ast.FuncDecl) {
		if n := invariants.Count(fn, invariants.Call("", "recover")); n > 0 {
			recovers[fn.Name.Name] = n
		}
		if n := invariants.Count(fn, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return false
			}
			id, ok := lit.Type.(*ast.Ident)
			return ok && id.Name == "methodAbort"
		}); n > 0 {
			sentinels[fn.Name.Name] = n
		}
	})
	if len(recovers) != 1 || recovers["runMethod"] != 1 {
		t.Errorf("recover() sites = %v, want exactly one, in runMethod", recovers)
	}
	if len(sentinels) != 1 || sentinels["abortMethod"] != 1 {
		t.Errorf("methodAbort literals = %v, want exactly one, in abortMethod", sentinels)
	}
}

// TestReplayDivergenceIsFailStop restarts an MSP over a log its new
// definition cannot replay: a handler that now writes where the logged
// execution read, and a method that is gone. The sweep's replay must halt
// that one MSP with the session still owing its replay; both used to panic
// the whole process.
func TestReplayDivergenceIsFailStop(t *testing.T) {
	read := func(ctx *Ctx, _ []byte) ([]byte, error) { return ctx.ReadShared("v") }
	write := func(ctx *Ctx, _ []byte) ([]byte, error) { return nil, ctx.WriteShared("v", u64(1)) }
	shared := []SharedDef{{Name: "v", Initial: u64(0)}}
	for _, tc := range []struct {
		name    string
		methods map[string]Handler
	}{
		{"handler-diverges", map[string]Handler{"op": write}},
		{"method-removed", map[string]Handler{"other": read}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEnv(t)
			defer e.cleanup()
			e.start("m", Definition{Methods: map[string]Handler{"op": read}, Shared: shared})
			mustCall(t, e.endClient().Session("m"), "op", nil)
			e.srvs["m"].Crash()
			srv := e.start("m", Definition{Methods: tc.methods, Shared: shared})
			waitFor(t, 10*time.Second, "the replay to halt the MSP", srv.Halted)
			if got := srv.RecoveringSessions(); got != 1 {
				t.Fatalf("RecoveringSessions after the failed replay = %d, want 1", got)
			}
		})
	}
}

// TestAbortNoReplyRollsSessionBack pins what the abort path does with the
// session after a method aborts on a live server: it rolls the session
// back and replays it from the log, as after a crash. A method that
// changes session state and then calls AbortNoReply must leave no trace
// of that change: the request completes once, its reply carries the
// value of one execution, and one ReqReceive is logged for it. Answering
// Busy instead of rolling back would let the resend run again on the
// aborted execution's state.
func TestAbortNoReplyRollsSessionBack(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	var aborted atomic.Bool
	def := counterDef()
	def.Methods["flaky"] = func(ctx *Ctx, arg []byte) ([]byte, error) {
		n := asU64(ctx.GetVar("n")) + 1
		ctx.SetVar("n", u64(n))
		if aborted.CompareAndSwap(false, true) {
			ctx.AbortNoReply(errors.New("the lower layer failed mid-write"))
		}
		return u64(n), nil
	}
	srv := e.start("msp1", def)
	cs := e.endClient().Session("msp1")
	lsn0 := srv.Log().Next()
	if got := asU64(mustCall(t, cs, "flaky", nil)); got != 1 {
		t.Fatalf("flaky = %d; want 1: the aborted execution's state survived", got)
	}
	if got := receivesFor(t, srv, lsn0, cs.ID(), 1); got != 1 {
		t.Fatalf("%d ReqReceive records for one request; want 1", got)
	}
}
