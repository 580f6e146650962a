package core

import (
	"fmt"
	"testing"
	"time"

	"mspr/internal/failpoint"
	"mspr/internal/metrics"
)

// noSweep is the config mutator for deterministic lazy-restore tests:
// with the background sweep off, a unit is restored only on first touch,
// so the test controls exactly when each replay happens.
func noSweep(cfg *Config) { cfg.noRecoverySweep = true }

// unrecoveredShared counts the server's shared variables whose value has
// not been materialized from the log since the crash.
func unrecoveredShared(s *Server) int {
	n := 0
	for _, sv := range s.shared {
		sv.mu.Lock()
		if sv.unrecovered {
			n++
		}
		sv.mu.Unlock()
	}
	return n
}

// TestLazySessionRestoreOnFirstTouch is the instant-recovery contract at
// unit scale: after a crash the session is pending (analysis only), the
// first request replays exactly that session, and the server no longer
// counts it as owing a replay.
func TestLazySessionRestoreOnFirstTouch(t *testing.T) {
	lazyBefore := metrics.Recovery.LazyReplays.Load()
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef(), noSweep)
	cs := e.endClient().Session("m")
	for want := uint64(1); want <= 3; want++ {
		mustCall(t, cs, "inc", nil)
	}
	e.restart("m")

	// Analysis published the session but nothing replayed it yet.
	if got := e.srvs["m"].RecoveringSessions(); got != 1 {
		t.Fatalf("RecoveringSessions after analysis = %d, want 1", got)
	}

	// First touch replays the session and serves against restored state.
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 4 {
		t.Fatalf("first post-crash inc returned %d, want 4 (exactly-once violated)", got)
	}
	if d := metrics.Recovery.LazyReplays.Load() - lazyBefore; d < 1 {
		t.Fatalf("LazyReplays delta = %d, want >= 1", d)
	}
	if got := e.srvs["m"].RecoveringSessions(); got != 0 {
		t.Fatalf("RecoveringSessions after first touch = %d, want 0", got)
	}
}

// TestSharedVariableLazyMaterializationOnRead checks the shared-variable
// half of lazy restore: the analysis scan leaves only the chain-head LSN,
// and the first read re-materializes the value from that one record.
func TestSharedVariableLazyMaterializationOnRead(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef(), noSweep)
	cs := e.endClient().Session("m")
	for want := uint64(1); want <= 5; want++ {
		mustCall(t, cs, "sharedInc", nil)
	}
	e.restart("m")
	if got := unrecoveredShared(e.srvs["m"]); got != 1 {
		t.Fatalf("unrecovered shared variables after analysis = %d, want 1", got)
	}
	// A fresh session's read must see the value materialized from the log.
	cs2 := e.endClient().Session("m")
	if got := asU64(mustCall(t, cs2, "sharedGet", nil)); got != 5 {
		t.Fatalf("post-crash sharedGet returned %d, want 5", got)
	}
	if got := unrecoveredShared(e.srvs["m"]); got != 0 {
		t.Fatalf("unrecovered shared variables after read = %d, want 0", got)
	}
}

// TestSharedVariableLazyWriteSkipsMaterialization: a write replaces the
// value wholesale, so an unrecovered variable goes live without reading
// the log — but its backward chain must stay intact: a later crash and
// read must see the new value, and the chain must still resolve.
func TestSharedVariableLazyWriteSkipsMaterialization(t *testing.T) {
	def := Definition{
		Methods: map[string]Handler{
			"put": func(ctx *Ctx, arg []byte) ([]byte, error) {
				return nil, ctx.WriteShared("v", arg)
			},
			"peek": func(ctx *Ctx, arg []byte) ([]byte, error) {
				return ctx.ReadShared("v")
			},
		},
		Shared: []SharedDef{{Name: "v", Initial: u64(0)}},
	}
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", def, noSweep)
	cs := e.endClient().Session("m")
	mustCall(t, cs, "put", u64(7))
	e.restart("m")
	// Blind write against the unrecovered variable: no materialization.
	cs2 := e.endClient().Session("m")
	mustCall(t, cs2, "put", u64(9))
	// Crash again: the analysis scan walks the chain the blind write
	// extended; the read must materialize the latest value.
	e.restart("m")
	cs3 := e.endClient().Session("m")
	if got := asU64(mustCall(t, cs3, "peek", nil)); got != 9 {
		t.Fatalf("peek after blind write and crash returned %d, want 9", got)
	}
}

// TestCrashDuringLazyReplay arms FPLazyReplay: the first post-crash
// request claims the session and the incarnation dies before replaying
// it. The next incarnation must serve the retried request exactly once.
func TestCrashDuringLazyReplay(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	reg := failpoint.New(23)
	e.start("m", counterDef(), noSweep, func(cfg *Config) { cfg.Disk.SetFailpoints(reg) })
	cs := e.endClient().Session("m")
	for want := uint64(1); want <= 3; want++ {
		mustCall(t, cs, "inc", nil)
	}
	e.restart("m")
	reg.Enable(FPLazyReplay, failpoint.Times(1))

	// The client's request touches the unrecovered session, wins the
	// claim, and the armed point kills the incarnation before replay. The
	// client keeps resending; the restarted incarnation serves it.
	done := make(chan uint64, 1)
	go func() {
		out, err := cs.Call("inc", nil)
		if err != nil {
			done <- 0
			return
		}
		done <- asU64(out)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Armed(FPLazyReplay) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if reg.Armed(FPLazyReplay) {
		t.Fatal("lazy replay never reached the armed point")
	}
	e.restart("m")
	if got := <-done; got != 4 {
		t.Fatalf("inc across lazy-replay crash returned %d, want 4 (exactly-once violated)", got)
	}
}

// TestTeardownWithUnitsPending: an incarnation that dies with
// unrecovered units still pending leaves them to the next incarnation,
// which recovers everything exactly once from its own analysis pass.
func TestTeardownWithUnitsPending(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef(), noSweep)
	cs := e.endClient().Session("m")
	mustCall(t, cs, "inc", nil)
	mustCall(t, cs, "sharedInc", nil)
	e.restart("m")
	if e.srvs["m"].RecoveringSessions() == 0 || unrecoveredShared(e.srvs["m"]) == 0 {
		t.Fatal("analysis left no session or shared variable pending")
	}
	// Crash with everything still pending.
	e.srvs["m"].Crash()
	e.start("m", e.defs["m"])
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 2 {
		t.Fatalf("inc after double crash returned %d, want 2", got)
	}
}

// TestSweepDrainsAllUnits: with the background sweep on (the default),
// every pending unit drains to live without any traffic.
func TestSweepDrainsAllUnits(t *testing.T) {
	sweepBefore := metrics.Recovery.SweepReplays.Load()
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef())
	c := e.endClient()
	const n = 8
	sessions := make([]*ClientSession, n)
	for i := range sessions {
		sessions[i] = c.Session("m")
		mustCall(t, sessions[i], "inc", nil)
		mustCall(t, sessions[i], "sharedInc", nil)
	}
	e.restart("m")
	deadline := time.Now().Add(10 * time.Second)
	for e.srvs["m"].RecoveringSessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := e.srvs["m"].RecoveringSessions(); got != 0 {
		t.Fatalf("sweep left %d sessions pending", got)
	}
	if d := metrics.Recovery.SweepReplays.Load() - sweepBefore; d < 1 {
		t.Fatalf("SweepReplays delta = %d, want >= 1", d)
	}
	// The shared variable drains too (it may take one more sweep step).
	for unrecoveredShared(e.srvs["m"]) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := unrecoveredShared(e.srvs["m"]); got != 0 {
		t.Fatalf("sweep left %d shared variables unrecovered", got)
	}
	// Everything is live: each session continues exactly-once.
	for i, cs := range sessions {
		if got := asU64(mustCall(t, cs, "inc", nil)); got != 2 {
			t.Fatalf("session %d post-sweep inc returned %d, want 2", i, got)
		}
	}
}

// TestRequestsInterleavedWithSweep races live traffic against the
// background sweep right after a crash: whichever side claims a session
// first, every counter must advance exactly once.
func TestRequestsInterleavedWithSweep(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef())
	c := e.endClient()
	const n = 12
	sessions := make([]*ClientSession, n)
	for i := range sessions {
		sessions[i] = c.Session("m")
		for k := 0; k < 2; k++ {
			mustCall(t, sessions[i], "inc", nil)
		}
	}
	e.restart("m")
	// Fire all sessions concurrently while the sweep is draining.
	done := make(chan error, n)
	for _, cs := range sessions {
		go func(cs *ClientSession) {
			out, err := cs.Call("inc", nil)
			if err != nil {
				done <- err
				return
			}
			if asU64(out) != 3 {
				done <- fmt.Errorf("session %s: inc during sweep returned %d, want 3", cs.ID(), asU64(out))
				return
			}
			done <- nil
		}(cs)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTimeToFirstReplyMeasured: a crash-recovered incarnation reports a
// nonzero time-to-first-reply once it serves; a fresh incarnation
// reports zero.
func TestTimeToFirstReplyMeasured(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	s := e.start("m", counterDef())
	cs := e.endClient().Session("m")
	mustCall(t, cs, "inc", nil)
	if d := s.TimeToFirstReply(); d != 0 {
		t.Fatalf("fresh incarnation reports TTFR %v, want 0", d)
	}
	s2 := e.restart("m")
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 2 {
		t.Fatalf("post-crash inc returned %d, want 2", got)
	}
	if d := s2.TimeToFirstReply(); d <= 0 {
		t.Fatalf("recovered incarnation reports TTFR %v, want > 0", d)
	}
}
