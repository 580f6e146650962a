package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mspr/internal/logrec"
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
	"mspr/internal/wal"
)

// stepClock steps the simtime clock for the rest of the test and returns
// its advance: deadlines, cooldowns and service times then move only when
// the test says so.
func stepClock(t *testing.T) func(time.Duration) {
	advance, restore := simtime.Step()
	t.Cleanup(restore)
	return advance
}

// spinUntil yields until cond holds, failing the test after five seconds:
// a wait for another goroutine that costs no sleep.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// blockDef is a service whose "block" method parks on gate until
// released, so tests can hold the worker pool busy deterministically.
// entered receives one value per handler entry.
func blockDef(gate chan struct{}, entered chan struct{}) Definition {
	d := counterDef()
	d.Methods["block"] = func(ctx *Ctx, arg []byte) ([]byte, error) {
		entered <- struct{}{}
		<-gate
		return nil, nil
	}
	return d
}

// rawReply waits for the reply matching (session, seq) on a raw
// endpoint, skipping others.
func rawReply(t *testing.T, ep *simnet.Endpoint, session string, seq uint64, timeout time.Duration) rpc.Reply {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case m := <-ep.Recv():
			if rep, ok := m.Payload.(rpc.Reply); ok && rep.Session == session && rep.Seq == seq {
				return rep
			}
		case <-deadline:
			t.Fatalf("no reply for %s/%d within %v", session, seq, timeout)
		}
	}
}

// TestQueueOverflowRepliesOverloaded is the regression test for the
// silent request-queue drop: a request arriving at a full admission
// queue must be answered immediately with StatusOverloaded AND count on
// ShedAtAdmission.
func TestQueueOverflowRepliesOverloaded(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv := e.start("msp1", blockDef(gate, entered), func(c *Config) {
		c.Workers = 1
		c.RequestQueueDepth = 2
		c.PriorityQueueDepth = 1
	})
	_ = srv

	raw := e.net.Endpoint("raw")
	send := func(session string, seq uint64) {
		raw.Send("msp1", rpc.Request{Session: session, Seq: seq, Method: "block",
			NewSession: seq == 1, From: raw.Addr()})
	}

	shed0 := metrics.Overload.ShedAtAdmission.Load()
	admitted0 := metrics.Overload.Admitted.Load()

	// Occupy the lone worker, then fill the 2-deep normal lane.
	send("ovl-a", 1)
	<-entered
	send("ovl-b", 1)
	send("ovl-c", 1)
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		for i := 0; i < 2000; i++ {
			if cond() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor(func() bool { return metrics.Overload.Admitted.Load()-admitted0 >= 3 }, "three admissions")

	// The fourth request finds both the worker and the queue full: shed.
	send("ovl-d", 1)
	rep := rawReply(t, raw, "ovl-d", 1, 5*time.Second)
	if rep.Status != rpc.StatusOverloaded {
		t.Fatalf("overflow reply status = %v; want Overloaded", rep.Status)
	}
	if got := metrics.Overload.ShedAtAdmission.Load() - shed0; got < 1 {
		t.Fatalf("ShedAtAdmission delta = %d; want >= 1", got)
	}
	close(gate) // release the parked handlers before cleanup
}

// TestExpiredDeadlineInQueueExecutesOnce pins the one deadline shed's
// reach: a request whose deadline expires while it waits in the queue is
// past admission, so it executes — OK with the next counter value, one
// ReqReceive appended, no ShedExpired counted — and a resend under the
// same sequence number is answered from the reply buffer without a
// second append. The deadline expires on a stepped clock.
func TestExpiredDeadlineInQueueExecutesOnce(t *testing.T) {
	advance := stepClock(t)
	e := newTestEnv(t)
	defer e.cleanup()
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv := e.start("msp1", blockDef(gate, entered), func(c *Config) {
		c.Workers = 1
	})

	raw := e.net.Endpoint("raw")
	// Establish session "b" with a normal call so the expiring request
	// needs no SessionStart append of its own.
	raw.Send("msp1", rpc.Request{Session: "b", Seq: 1, Method: "inc", NewSession: true, From: raw.Addr()})
	if rep := rawReply(t, raw, "b", 1, 5*time.Second); rep.Status != rpc.StatusOK {
		t.Fatalf("setup call status = %v", rep.Status)
	}

	// Park the lone worker, then queue the deadline-carrying request
	// behind it.
	raw.Send("msp1", rpc.Request{Session: "a", Seq: 1, Method: "block", NewSession: true, From: raw.Addr()})
	<-entered
	lsn0 := srv.Log().Next()
	shed0 := metrics.Overload.ShedExpired.Load()
	raw.Send("msp1", rpc.Request{Session: "b", Seq: 2, Method: "inc", From: raw.Addr(),
		Deadline: simtime.Now().Add(30 * time.Millisecond)})
	spinUntil(t, "the request to queue behind the parked worker", func() bool { return len(srv.reqCh) == 1 })
	advance(60 * time.Millisecond) // the deadline expires in the queue
	close(gate)                    // release the worker; it meets the expired request

	rep := rawReply(t, raw, "b", 2, 5*time.Second)
	if rep.Status != rpc.StatusOK || asU64(rep.Payload) != 2 {
		t.Fatalf("expired-in-queue request: status %v payload %d; want OK 2", rep.Status, asU64(rep.Payload))
	}
	if got := metrics.Overload.ShedExpired.Load() - shed0; got != 0 {
		t.Fatalf("ShedExpired delta = %d; want 0: only admission sheds on a deadline", got)
	}
	if got := receivesFor(t, srv, lsn0, "b", 2); got != 1 {
		t.Fatalf("%d ReqReceive records for b/2; want exactly 1", got)
	}

	// The client that gave up resends b/2: the reply buffer answers it,
	// and nothing executes or appends a second time.
	raw.Send("msp1", rpc.Request{Session: "b", Seq: 2, Method: "inc", From: raw.Addr()})
	rep = rawReply(t, raw, "b", 2, 5*time.Second)
	if rep.Status != rpc.StatusOK || asU64(rep.Payload) != 2 {
		t.Fatalf("resend: status %v payload %d; want OK 2 from the reply buffer", rep.Status, asU64(rep.Payload))
	}
	if got := receivesFor(t, srv, lsn0, "b", 2); got != 1 {
		t.Fatalf("%d ReqReceive records for b/2 after the resend; want still 1", got)
	}
}

// receivesFor counts the ReqReceive records for session/seq that srv's
// log holds from lsn on.
func receivesFor(t *testing.T, srv *Server, from wal.LSN, session string, seq uint64) int {
	t.Helper()
	n := 0
	if _, err := srv.Log().Scan(from, func(lsn wal.LSN, typ byte, payload []byte) error {
		if logrec.Type(typ) != logrec.TReqReceive {
			return nil
		}
		rec, err := logrec.DecodeReqReceive(payload)
		if err == nil && rec.Session == session && rec.Seq == seq {
			n++
		}
		return err
	}); err != nil {
		t.Fatalf("scanning from %d: %v", from, err)
	}
	return n
}

// TestAdmissionShedsExpiredDeadline covers the deadline shed: a request
// already expired on arrival never reaches the queue.
func TestAdmissionShedsExpiredDeadline(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("msp1", counterDef())
	raw := e.net.Endpoint("raw")
	lsn0 := srv.Log().Next()
	shed0 := metrics.Overload.ShedExpired.Load()
	raw.Send("msp1", rpc.Request{Session: "x", Seq: 1, Method: "inc", NewSession: true,
		From: raw.Addr(), Deadline: time.Now().Add(-time.Second)})
	rep := rawReply(t, raw, "x", 1, 5*time.Second)
	if rep.Status != rpc.StatusOverloaded {
		t.Fatalf("expired-on-arrival reply = %v; want Overloaded", rep.Status)
	}
	if got := metrics.Overload.ShedExpired.Load() - shed0; got != 1 {
		t.Fatalf("ShedExpired delta = %d; want 1", got)
	}
	if lsn := srv.Log().Next(); lsn != lsn0 {
		t.Fatal("an admission-time shed must not touch the log")
	}
}

// TestPriorityLaneCarriesReplayClaims: after a crash-restart, a request
// touching a not-yet-replayed session rides the priority lane.
func TestPriorityLaneCarriesReplayClaims(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef(), func(c *Config) { c.noRecoverySweep = true })
	cs := e.endClient().Session("msp1")
	for i := 0; i < 3; i++ {
		mustCall(t, cs, "inc", nil)
	}
	e.restart("msp1")

	prio0 := metrics.Overload.AdmittedPriority.Load()
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 4 {
		t.Fatalf("post-restart inc = %d; want 4", got)
	}
	if got := metrics.Overload.AdmittedPriority.Load() - prio0; got < 1 {
		t.Fatalf("AdmittedPriority delta = %d; want >= 1 (the lazy-replay claim)", got)
	}
}

// TestPriorityOverflowFallsBackAndCounts: a priority-classified request
// that finds the priority lane full is still admitted — at the tail of
// the normal lane — and the demotion is counted on PriorityOverflow so
// storms and the chaos report can detect priority starvation.
func TestPriorityOverflowFallsBackAndCounts(t *testing.T) {
	s := &Server{
		cfg:    Config{Workers: 1},
		reqCh:  make(chan rpc.Request, 4),
		prioCh: make(chan rpc.Request), // unbuffered, no reader: always full
	}
	// The zero-value state is stateRecovering, so laneFor classifies the
	// request as priority without touching the session table.
	if s.laneFor(rpc.Request{Session: "p"}) != lanePriority {
		t.Fatal("setup: a recovering server must classify requests as priority")
	}
	over0 := metrics.Overload.PriorityOverflow.Load()
	adm0 := metrics.Overload.Admitted.Load()
	s.admit(rpc.Request{Session: "p", Seq: 1})
	if got := metrics.Overload.PriorityOverflow.Load() - over0; got != 1 {
		t.Fatalf("PriorityOverflow delta = %d; want 1", got)
	}
	if got := metrics.Overload.Admitted.Load() - adm0; got != 1 {
		t.Fatalf("Admitted delta = %d; want 1: the demoted request is admitted, not shed", got)
	}
	select {
	case req := <-s.reqCh:
		if req.Session != "p" || req.Seq != 1 {
			t.Fatalf("normal lane holds %s/%d; want the demoted request p/1", req.Session, req.Seq)
		}
	default:
		t.Fatal("the demoted request must land in the normal lane")
	}
}

// TestClientPerTargetOverloadControl: sessions toward one target share a
// breaker; a different target gets its own.
func TestClientPerTargetOverloadControl(t *testing.T) {
	net := simnet.New(simnet.Config{TimeScale: 0})
	opts := rpc.DefaultCallOptions(0)
	opts.Breaker = rpc.NewBreaker(5, 50*time.Millisecond)
	c := NewClient("c", net, opts)
	defer c.Close()
	s1, s2, s3 := c.Session("a"), c.Session("a"), c.Session("b")
	if s1.opts.Breaker == nil {
		t.Fatal("sessions must carry the per-target breaker")
	}
	if s1.opts.Breaker != s2.opts.Breaker {
		t.Fatal("sessions toward one target must share a breaker")
	}
	if s1.opts.Breaker == s3.opts.Breaker {
		t.Fatal("a different target must get its own breaker")
	}
	if s1.opts.Breaker == opts.Breaker {
		t.Fatal("the configured breaker is a template; targets must get clones")
	}
}

// TestDurableClientPerTargetOverloadControl: a durable client's sessions
// draw on per-target clones of the configured breaker, exactly like
// Client's. One target shedding everything opens the breaker toward
// that target only; with the one breaker every DurableSession used to
// share, the healthy target was refused too.
func TestDurableClientPerTargetOverloadControl(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	// "shedder" answers every request Overloaded.
	shedder := e.net.Endpoint("shedder")
	stop := make(chan struct{})
	defer close(stop)
	go rpc.Serve(shedder, stop, func(m simnet.Message) {
		if req, ok := m.Payload.(rpc.Request); ok {
			shedder.Send(req.From, rpc.Reply{Session: req.Session, Seq: req.Seq, Status: rpc.StatusOverloaded})
		}
	})

	opts := rpc.DefaultCallOptions(0)
	opts.Breaker = rpc.NewBreaker(2, time.Minute)
	dc, err := NewDurableClient("dclient", e.net, simdisk.NewDisk(simdisk.DefaultModel(0)), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	bad, err := dc.Session("shedder")
	if err != nil {
		t.Fatal(err)
	}
	bad2, err := dc.Session("shedder")
	if err != nil {
		t.Fatal(err)
	}
	good, err := dc.Session("msp1")
	if err != nil {
		t.Fatal(err)
	}
	if bad.opts.Breaker != bad2.opts.Breaker {
		t.Fatal("sessions toward one target must share a breaker")
	}
	if bad.opts.Breaker == opts.Breaker {
		t.Fatal("the configured breaker is a template; targets must get clones")
	}

	if _, err := bad.Call("inc", nil); !errors.Is(err, rpc.ErrCircuitOpen) {
		t.Fatalf("call to the shedding target: %v, want ErrCircuitOpen after two sheds", err)
	}
	if _, err := bad2.Call("inc", nil); !errors.Is(err, rpc.ErrCircuitOpen) {
		t.Fatalf("second session to the shedding target: %v, want its shared breaker open", err)
	}
	out, err := good.Call("inc", nil)
	if err != nil || asU64(out) != 1 {
		t.Fatalf("call to the healthy target = (%d, %v): sheds from another target must not open its breaker", asU64(out), err)
	}
}

// TestOverloadedCalleeIsRetriedNotAnswered: an MSP calling another is
// that callee's client, and a callee that sheds a request has answered
// nothing. The caller's worker resends the same request under the same
// sequence number until the callee serves it: the handler never sees the
// shed, and no outgoing sequence number is skipped. The peer here sheds
// the first copy of every request it gets.
func TestOverloadedCalleeIsRetriedNotAnswered(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	peer := e.net.Endpoint("peer")
	stop := make(chan struct{})
	defer close(stop)
	var mu sync.Mutex
	var seen []uint64 // every copy's sequence number, in arrival order
	copies := map[uint64]int{}
	go rpc.Serve(peer, stop, func(m simnet.Message) {
		req, ok := m.Payload.(rpc.Request)
		if !ok {
			return
		}
		mu.Lock()
		seen = append(seen, req.Seq)
		copies[req.Seq]++
		first := copies[req.Seq] == 1
		mu.Unlock()
		rep := rpc.Reply{Session: req.Session, Seq: req.Seq, Status: rpc.StatusOK, Payload: []byte(fmt.Sprint("peer-", req.Seq))}
		if first {
			rep = rpc.Reply{Session: req.Session, Seq: req.Seq, Status: rpc.StatusOverloaded}
		}
		peer.Send(req.From, rep)
	})
	def := counterDef()
	def.Methods["twoHops"] = func(ctx *Ctx, arg []byte) ([]byte, error) {
		var outs []string
		for hop := 0; hop < 2; hop++ {
			out, err := ctx.Call("peer", "m", nil)
			if err != nil {
				outs = append(outs, "error: "+err.Error())
				continue
			}
			outs = append(outs, string(out))
		}
		return []byte(strings.Join(outs, ", ")), nil
	}
	e.start("msp1", def)
	out := mustCall(t, e.endClient().Session("msp1"), "twoHops", nil)
	if got, want := string(out), "peer-1, peer-2"; got != want {
		t.Fatalf("the two hops returned %q, want %q", got, want)
	}
	// Normally [1 1 2 2]; a resend timer firing before a reply is read
	// adds a copy, never a new number.
	mu.Lock()
	defer mu.Unlock()
	var runs []uint64
	for i, seq := range seen {
		if i == 0 || seq != seen[i-1] {
			runs = append(runs, seq)
		}
	}
	if fmt.Sprint(runs) != "[1 2]" || copies[1] < 2 || copies[2] < 2 {
		t.Fatalf("the peer saw sequence numbers %v, want 1 and then 2, each resent after its shed and none skipped", seen)
	}
}

// TestOverloadedCalleeMSPUnderLoad: several sessions call through msp1
// into an msp2 whose one worker is held and whose lanes hold one request
// each, so msp2 sheds at its admission gate. Every call still executes
// exactly once at msp2: each outgoing session's counter reads 1 after the
// first call and 2 after the second.
func TestOverloadedCalleeMSPUnderLoad(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	callee := e.start("msp2", blockDef(gate, entered), func(c *Config) {
		c.Workers = 1
		c.RequestQueueDepth = 1
		c.PriorityQueueDepth = 1
	})
	def := counterDef()
	def.Methods["through"] = func(ctx *Ctx, arg []byte) ([]byte, error) {
		return ctx.Call("msp2", "inc", nil)
	}
	e.start("msp1", def)
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	raw := e.net.Endpoint("raw")
	raw.Send("msp2", rpc.Request{Session: "blk", Seq: 1, Method: "block", NewSession: true, From: raw.Addr()})
	<-entered

	const n = 6
	sessions := make([]*ClientSession, n)
	for i := range sessions {
		sessions[i] = e.endClient().Session("msp1")
	}
	round := func(want uint64) {
		t.Helper()
		errs := make(chan error, n)
		for _, cs := range sessions {
			go func() {
				out, err := cs.Call("through", nil)
				if err == nil && asU64(out) != want {
					err = fmt.Errorf("%s: counter %d, want %d", cs.ID(), asU64(out), want)
				}
				errs <- err
			}()
		}
		if !released {
			for i := 0; callee.Stats().OverloadedReplies.Load() == 0; i++ {
				if i == 5000 {
					t.Fatal("msp2 shed nothing with its worker held and its lanes full")
				}
				time.Sleep(time.Millisecond)
			}
			released = true
			close(gate)
		}
		for range sessions {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
	round(1)
	round(2)
}
