package core

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mspr/internal/dv"
	"mspr/internal/logrec"
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simnet"
	"mspr/internal/wal"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFlushReturnsWithinDeadlineUnderPartition is the deterministic
// degradation check: a distributed-flush peer call against a partitioned
// peer must give up at its (floored) deadline with errUnavailable and
// mark the peer down — not hang — and repeated calls against the down
// peer must fail fast. After Heal the probe path brings the peer back.
func TestFlushReturnsWithinDeadlineUnderPartition(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	def1, def2 := twoMSPDefs(1)
	s1 := e.start("msp1", def1)
	s2 := e.start("msp2", def2)
	cs := e.endClient().Session("msp1")
	mustCall(t, cs, "method1", nil) // warm the control path

	sid := dv.StateID{Epoch: s2.Epoch(), LSN: 0}
	e.net.Partition([]simnet.Addr{"msp1"}, []simnet.Addr{"msp2"})

	start := time.Now()
	err := s1.flushPeer("msp2", sid)
	elapsed := time.Since(start)
	if !errors.Is(err, errUnavailable) {
		t.Fatalf("flush under partition: err = %v, want errUnavailable", err)
	}
	// At TimeScale 0 the deadline clamps to the wall-clock floor; well
	// under a second either way. The call must not have hung.
	if elapsed > time.Second {
		t.Fatalf("flush under partition took %v, want within its deadline", elapsed)
	}
	if !s1.PeerDown("msp2") {
		t.Fatal("peer not marked down after flush deadline")
	}

	// With the peer down, a non-probe call fails fast (no deadline wait).
	start = time.Now()
	err = s1.flushPeer("msp2", sid)
	if !errors.Is(err, errUnavailable) {
		t.Fatalf("fast-fail flush: err = %v, want errUnavailable", err)
	}
	if fastElapsed := time.Since(start); fastElapsed > 20*time.Millisecond {
		t.Fatalf("flush against down peer took %v, want fast failure", fastElapsed)
	}

	e.net.Heal()
	waitFor(t, 5*time.Second, "flush to succeed after heal", func() bool {
		return s1.flushPeer("msp2", sid) == nil
	})
	if s1.PeerDown("msp2") {
		t.Fatal("peer still marked down after successful flush")
	}
}

// TestPartitionDegradesToBusyNotDeadlock splits the domain while msp1
// holds a finished-but-unflushed reply whose dependency vector covers
// msp2: the reply flush must fail at its deadline and the end client
// must be degraded to Busy (request buffered, resends absorbed) instead
// of the worker deadlocking. Healing the partition releases the reply
// with exactly-once semantics.
func TestPartitionDegradesToBusyNotDeadlock(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	var arm atomic.Bool
	entered := make(chan struct{})
	hold := make(chan struct{})
	def2 := Definition{
		Methods: map[string]Handler{
			"inc": func(ctx *Ctx, arg []byte) ([]byte, error) {
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return u64(n), nil
			},
		},
	}
	def1 := Definition{
		Methods: map[string]Handler{
			"dep": func(ctx *Ctx, arg []byte) ([]byte, error) {
				out, err := ctx.Call("msp2", "inc", arg)
				if err != nil {
					return nil, err
				}
				if arm.CompareAndSwap(true, false) {
					entered <- struct{}{}
					<-hold // test partitions the domain meanwhile
				}
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return append(u64(n), out...), nil
			},
		},
	}
	e.start("msp2", def2)
	s1 := e.start("msp1", def1)
	cs := e.endClient().Session("msp1")
	if got := asU64(mustCall(t, cs, "dep", nil)); got != 1 {
		t.Fatalf("warmup returned %d, want 1", got)
	}

	deadlinesBefore := metrics.Net.FlushDeadlinesExceeded.Load()
	arm.Store(true)
	done := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		out, err := cs.Call("dep", nil)
		if err != nil {
			errc <- err
			return
		}
		done <- out
	}()
	<-entered
	e.net.Partition([]simnet.Addr{"msp1"}, []simnet.Addr{"msp2"})
	close(hold)

	// The reply flush must exhaust its deadline and degrade: peer marked
	// down, client answered Busy while the reply stays buffered.
	waitFor(t, 5*time.Second, "msp2 marked down at msp1", func() bool {
		return s1.PeerDown("msp2")
	})
	if got := metrics.Net.FlushDeadlinesExceeded.Load(); got <= deadlinesBefore {
		t.Fatalf("FlushDeadlinesExceeded did not advance (%d -> %d)", deadlinesBefore, got)
	}
	select {
	case out := <-done:
		t.Fatalf("call completed during partition: %x", out)
	case err := <-errc:
		t.Fatalf("call failed during partition: %v", err)
	default: // still degraded to Busy — the request has not finished
	}

	e.net.Heal()
	select {
	case out := <-done:
		if got := asU64(out); got != 2 {
			t.Fatalf("post-heal call returned %d, want 2 (exactly-once violated)", got)
		}
	case err := <-errc:
		t.Fatalf("post-heal call failed: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("call did not complete after heal")
	}
	if got := asU64(mustCall(t, cs, "dep", nil)); got != 3 {
		t.Fatalf("follow-up returned %d, want 3", got)
	}
}

// TestRecoveryBroadcastLostToPartitionConverges crashes and restarts
// msp2 while the domain is split: its recovery broadcast cannot reach
// msp1. After Heal, msp1 must still learn msp2's recovery info — from
// msp2's re-announcement to the peer its broadcast missed, with no
// application traffic and the default config — and the workload must
// continue exactly-once.
func TestRecoveryBroadcastLostToPartitionConverges(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	def1, def2 := twoMSPDefs(1)
	s1 := e.start("msp1", def1)
	e.start("msp2", def2)
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 3; want++ {
		if got := asU64(mustCall(t, cs, "method1", nil)); got != want {
			t.Fatalf("warmup #%d returned %d", want, got)
		}
	}

	crashedEpoch := e.srvs["msp2"].Epoch()
	missedBefore := metrics.Net.BroadcastPeersMissed.Load()
	e.net.Partition([]simnet.Addr{"msp1"}, []simnet.Addr{"msp2"})
	e.restart("msp2") // its recovery broadcast is lost to the partition
	if got := metrics.Net.BroadcastPeersMissed.Load(); got <= missedBefore {
		t.Fatalf("BroadcastPeersMissed did not advance (%d -> %d)", missedBefore, got)
	}
	if _, ok := s1.know.Lookup("msp2", crashedEpoch); ok {
		t.Fatal("msp1 learned the recovery info through the partition")
	}

	e.net.Heal()
	// No application traffic: convergence must come from msp2's push.
	waitFor(t, 5*time.Second, "msp1 to learn msp2's recovery info", func() bool {
		_, ok := s1.know.Lookup("msp2", crashedEpoch)
		return ok
	})
	for want := uint64(4); want <= 6; want++ {
		if got := asU64(mustCall(t, cs, "method1", nil)); got != want {
			t.Fatalf("post-heal #%d returned %d (exactly-once violated)", want, got)
		}
	}
}

// TestCallerCrashWhilePartitionedCompletes crashes msp1 underneath a
// request that has called msp2, and restarts it while the domain is
// split, so its recovery broadcast misses msp2. msp2's buffered reply
// then names msp1 states the crash lost, and msp1 drops it as an orphan
// on every resend until msp2 hears of the recovery: with the default
// config, the request must still complete, exactly once, after the heal.
func TestCallerCrashWhilePartitionedCompletes(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	var arm atomic.Bool
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
				if arm.CompareAndSwap(true, false) {
					restartWG.Add(1)
					go func() {
						defer restartWG.Done()
						e.net.Partition([]simnet.Addr{"msp1"}, []simnet.Addr{"msp2"})
						e.restart("msp1") // its recovery broadcast is lost to the partition
						e.net.Heal()
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
	arm.Store(true)
	done := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		out, err := sess.Call("method1", nil)
		if err != nil {
			errc <- err
			return
		}
		done <- out
	}()
	var out []byte
	select {
	case out = <-done:
	case err := <-errc:
		t.Fatalf("call across the partitioned restart failed: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("call did not complete after msp1 restarted while partitioned from msp2")
	}
	restartWG.Wait()
	if got := asU64(out); got != 3 {
		t.Fatalf("method1 returned %d, want 3", got)
	}
	if got := asU64(out[8:]); got != 3 {
		t.Fatalf("method2 executed %d times, want 3 (duplicate or lost nested call)", got)
	}
}

// TestResendToOrphanSessionRollsItBack: a session that became an orphan
// while the recovery-message sweep could not see it — it was busy serving
// a resend when the news arrived — is caught by the next resend, which
// must not be answered from the reply buffer: that reply names states the
// caller lost, and a restarted caller drops it on every resend.
// TestCallerCrashWhilePartitionedCompletes hung this way about once in a
// hundred runs under the race detector at eight threads.
func TestResendToOrphanSessionRollsItBack(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	s := e.start("msp1", counterDef())
	caller := e.net.Endpoint("caller")
	req := rpc.Request{Session: "caller~msp1", Seq: 1, Method: "inc", NewSession: true,
		HasDV: true, DV: dv.Vector{{Process: "caller", Epoch: 1}: 100}, From: caller.Addr()}
	if rep := callRawTo(t, caller, "msp1", req); rep.Status != rpc.StatusOK || asU64(rep.Payload) != 1 {
		t.Fatalf("first call: %v %d, want OK 1", rep.Status, asU64(rep.Payload))
	}

	// The caller's epoch 1 is known to have recovered state 50, and the
	// session, which depends on its state 100, was not swept.
	s.know.Record(dv.RecoveryInfo{Process: "caller", CrashedEpoch: 1, Recovered: 50})
	orphans := s.Stats().OrphanRecoveries.Load()
	caller.Send("msp1", req)
	if rep := awaitReply(t, caller, 1); rep.Status != rpc.StatusBusy {
		t.Fatalf("resend to an orphan session: %v, want Busy while the session rolls back", rep.Status)
	}
	if got := s.Stats().OrphanRecoveries.Load() - orphans; got != 1 {
		t.Fatalf("OrphanRecoveries +%d, want +1", got)
	}

	// The caller's next incarnation sends the request again: it executes
	// once more, on the rolled-back state.
	req.DV = dv.Vector{{Process: "caller", Epoch: 2}: 1}
	if rep := callRawTo(t, caller, "msp1", req); rep.Status != rpc.StatusOK || asU64(rep.Payload) != 1 {
		t.Fatalf("request after the rollback: %v %d, want OK 1", rep.Status, asU64(rep.Payload))
	}
}

// TestControlRetransmissionIsServedAgain sends every control request
// twice under one ID, as a retransmission arrives when the first answer
// was lost: each copy is served again and answered alike, and serving a
// broadcast twice logs its news once.
func TestControlRetransmissionIsServedAgain(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	def1, _ := twoMSPDefs(0)
	s1 := e.start("msp1", def1)
	probe := e.net.Endpoint("probe")
	twice := func(req rpc.Request) []rpc.Reply {
		t.Helper()
		var reps []rpc.Reply
		for i := 0; i < 2; i++ {
			probe.Send("msp1", req)
			reps = append(reps, rawReply(t, probe, req.Session, req.Seq, 5*time.Second))
		}
		return reps
	}

	for _, c := range []struct {
		what string
		sid  dv.StateID
		want rpc.Status
	}{
		{"a durable state", dv.StateID{Epoch: s1.Epoch()}, rpc.StatusOK},
		{"an orphaned state", dv.StateID{Epoch: s1.Epoch(), LSN: 1 << 40}, rpc.StatusRejected},
	} {
		for i, rep := range twice(rpc.Request{Session: ctlFlush, Seq: 77, From: "probe", SID: c.sid}) {
			if rep.Status != c.want {
				t.Fatalf("flush of %s, copy %d: %v, want %v", c.what, i+1, rep.Status, c.want)
			}
		}
	}

	lsn0 := s1.Log().Next()
	news := dv.RecoveryInfo{Process: "probe", CrashedEpoch: 1, Recovered: 42}
	for i, rep := range twice(rpc.Request{Session: ctlBroadcast, Seq: 78, From: "probe", SID: dv.StateID{Epoch: 1, LSN: 42}}) {
		if rep.Status != rpc.StatusOK || !slices.Contains(rep.Known, news) {
			t.Fatalf("broadcast copy %d: %v knowing %v, want OK knowing %v", i+1, rep.Status, rep.Known, news)
		}
	}
	if err := s1.Log().Flush(s1.Log().LastAppended()); err != nil {
		t.Fatal(err)
	}
	logged := 0
	if _, err := s1.Log().Scan(lsn0, func(_ wal.LSN, typ byte, _ []byte) error {
		if typ == byte(logrec.TRecoveryInfo) {
			logged++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if logged != 1 {
		t.Fatalf("a broadcast served twice logged %d recovery-info records, want 1", logged)
	}
}

// TestExactlyOnceUnderLossDupReorder drives the client↔MSP edge and the
// intra-domain control plane through a network that loses, duplicates
// and reorders: every operation must still execute exactly once.
func TestExactlyOnceUnderLossDupReorder(t *testing.T) {
	e := newTestEnv(t)
	e.net = simnet.New(simnet.Config{
		OneWay: 200 * time.Microsecond, TimeScale: 0.05,
		LossRate: 0.15, DupRate: 0.15, ReorderJitter: 2 * time.Millisecond,
		Seed: 7,
	})
	defer e.cleanup()
	def1, def2 := twoMSPDefs(1)
	e.start("msp1", def1)
	e.start("msp2", def2)
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 25; want++ {
		if got := asU64(mustCall(t, cs, "method1", nil)); got != want {
			t.Fatalf("op #%d returned %d (exactly-once violated)", want, got)
		}
	}
}
