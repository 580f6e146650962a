package core

import (
	"fmt"
	"testing"
	"time"

	"mspr/internal/dv"
	"mspr/internal/failpoint"
	"mspr/internal/logrec"
	"mspr/internal/metrics"
	"mspr/internal/wal"
)

// noSweep is the config mutator for deterministic lazy-restore tests:
// with the background sweep off, a unit is restored only on first touch,
// so the test controls exactly when each replay happens.
func noSweep(cfg *Config) { cfg.noRecoverySweep = true }

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

// TestSharedVariablesLiveAfterStart: the analysis scan installs every
// written shared variable from the head of its backward chain — a shared
// write ("w", value and DV) or a checkpoint ("c", value, no DV) — before
// Start returns, so the first post-crash read reads nothing from the disk.
func TestSharedVariablesLiveAfterStart(t *testing.T) {
	def := Definition{
		Methods: map[string]Handler{
			"put": func(ctx *Ctx, arg []byte) ([]byte, error) {
				return nil, ctx.WriteShared(string(arg[:1]), arg[1:])
			},
			"peek": func(ctx *Ctx, arg []byte) ([]byte, error) {
				return ctx.ReadShared(string(arg))
			},
		},
		Shared: []SharedDef{{Name: "w", Initial: u64(0)}, {Name: "c", Initial: u64(0)}},
	}
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("m", def, noSweep)
	cs := e.endClient().Session("m")
	mustCall(t, cs, "put", append([]byte("c"), u64(7)...))
	srv.sharedVar("c").checkpoint(true)
	// The reply's flush covers the checkpoint record appended before it.
	mustCall(t, cs, "put", append([]byte("w"), u64(5)...))
	w := srv.sharedVar("w")
	w.mu.Lock()
	wantVec := w.vec.Clone()
	w.mu.Unlock()
	if len(wantVec) == 0 {
		t.Fatal("setup: the write logged no DV")
	}

	srv = e.restart("m")
	vars := []struct {
		name  string
		value uint64
		vec   dv.Vector
		typ   logrec.Type
	}{{"w", 5, wantVec, logrec.TSharedWrite}, {"c", 7, nil, logrec.TSVCheckpoint}}
	heads := make([]wal.LSN, len(vars))
	for i, tc := range vars {
		sv := srv.sharedVar(tc.name)
		sv.mu.Lock()
		value, vec := asU64(sv.value), sv.vec
		heads[i] = sv.lastWrite
		sv.mu.Unlock()
		if value != tc.value || !vec.Equal(tc.vec) {
			t.Errorf("%s after Start: value %d, DV %v; want %d, %v", tc.name, value, vec, tc.value, tc.vec)
		}
	}

	reads := e.disks["m"].Stats().Reads
	if got := asU64(mustCall(t, e.endClient().Session("m"), "peek", []byte("w"))); got != 5 {
		t.Fatalf("post-crash read returned %d, want 5", got)
	}
	if d := e.disks["m"].Stats().Reads - reads; d != 0 {
		t.Errorf("the first post-crash read charged %d disk reads, want 0", d)
	}
	// Checked last: reading a chain head loads its block into the cache.
	for i, tc := range vars {
		if typ, _, err := srv.log.ReadRecord(heads[i]); err != nil || logrec.Type(typ) != tc.typ {
			t.Errorf("%s's chain head %d: %v (err %v), want %v", tc.name, heads[i], logrec.Type(typ), err, tc.typ)
		}
	}
}

// TestSharedVariableBlindWriteAfterRestart: a write that is the first
// post-crash access to a variable extends the backward chain the analysis
// scan rebuilt: a later crash and read must see the new value, and the
// chain must still resolve.
func TestSharedVariableBlindWriteAfterRestart(t *testing.T) {
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
	// Blind write: nothing reads the variable first.
	cs2 := e.endClient().Session("m")
	mustCall(t, cs2, "put", u64(9))
	// Crash again: the analysis scan walks the chain the blind write
	// extended; the read must see the latest value.
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
	if e.srvs["m"].RecoveringSessions() == 0 {
		t.Fatal("analysis left no session pending")
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
