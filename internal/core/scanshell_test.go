package core

import (
	"runtime"
	"testing"
	"time"
)

// relayDef is a session that keeps a counter in a session variable and
// calls "far" once per request: a replay rebuilds both of the session's
// state maps, vars and outgoing.
func relayDef() Definition {
	return Definition{Methods: map[string]Handler{
		"relay": func(ctx *Ctx, _ []byte) ([]byte, error) {
			n := asU64(ctx.GetVar("n")) + 1
			ctx.SetVar("n", u64(n))
			if _, err := ctx.Call("far", "inc", nil); err != nil {
				return nil, err
			}
			return u64(n), nil
		},
	}}
}

// TestScanShellsRunOnlyAfterReplay pins what lets the analysis scan leave
// a session's state maps unmade: nothing runs on a shell before its replay
// builds them. When Start returns, every scanned session is unrecovered
// with nil maps; a stale-checkpoint pass skips it (tryAcquire needs an
// idle session); and both a lazy replay and a sweep replay serve requests
// that set a variable and call out.
func TestScanShellsRunOnlyAfterReplay(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	stale := func(c *Config) { c.ForceCkptAfter = 1 }
	e.start("m", relayDef(), stale, noSweep)
	e.start("far", counterDef())
	a, b := e.endClient().Session("m"), e.endClient().Session("m")
	for i := 0; i < 2; i++ {
		mustCall(t, a, "relay", nil)
		mustCall(t, b, "relay", nil)
	}

	srv := e.restart("m")
	shells := srv.sessions.snapshot()
	if len(shells) != 2 {
		t.Fatalf("scan made %d sessions, want 2", len(shells))
	}
	checkShells := func(when string) {
		t.Helper()
		for _, sess := range shells {
			sess.mu.Lock()
			phase, vars, out := sess.phase, sess.vars, sess.outgoing
			sess.mu.Unlock()
			if phase != phaseUnrecovered || vars != nil || out != nil {
				t.Fatalf("%s: session %s is in phase %d with vars %v and outgoing %v, want an unrecovered shell with nil maps",
					when, sess.id, phase, vars, out)
			}
		}
	}
	checkShells("after Start")

	// The post-recovery MSP checkpoint aged every shell past
	// ForceCkptAfter; checkpointing one would run on its nil maps.
	ckpts := srv.stats.SessionCkpts.Load()
	srv.forceStaleCheckpoints()
	if got := srv.stats.SessionCkpts.Load(); got != ckpts {
		t.Fatalf("forceStaleCheckpoints checkpointed %d unrecovered shells", got-ckpts)
	}
	checkShells("after forceStaleCheckpoints")

	if got := asU64(mustCall(t, a, "relay", nil)); got != 3 {
		t.Fatalf("lazy replay: relay returned %d, want 3", got)
	}

	e.muts["m"] = []func(*Config){stale} // with the sweep this time
	srv = e.restart("m")
	waitFor(t, 5*time.Second, "the sweep to replay every session", func() bool { return srv.RecoveringSessions() == 0 })
	if got := asU64(mustCall(t, b, "relay", nil)); got != 3 {
		t.Fatalf("after the sweep: relay returned %d, want 3", got)
	}
	if got := asU64(mustCall(t, a, "relay", nil)); got != 4 {
		t.Fatalf("after the sweep: relay returned %d, want 4", got)
	}
}

// TestAnalysisScanAllocs bounds the garbage the analysis scan makes per
// session: a shell's ID and nothing per record. It crashes a log of
// interleaved sessions with two requests each, the shape of the recover_4k
// benchmark, and counts the allocations of a Start that runs the scan but
// no replay.
func TestAnalysisScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const sessions, requests = 2000, 2
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef(), noSweep)
	css := make([]*ClientSession, sessions)
	for i := range css {
		css[i] = e.endClient().Session("m")
	}
	for r := 0; r < requests; r++ {
		for _, cs := range css {
			mustCall(t, cs, "inc", nil)
		}
	}
	e.srvs["m"].Crash()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv := e.start("m", counterDef())
	runtime.ReadMemStats(&after)
	if got := srv.RecoveringSessions(); got != sessions {
		t.Fatalf("Start left %d sessions to replay, want %d", got, sessions)
	}
	perSession := float64(after.Mallocs-before.Mallocs) / sessions
	t.Logf("Start: %d allocations, %.2f per session", after.Mallocs-before.Mallocs, perSession)
	// A shell costs its ID string, plus its share of the amortised growth
	// of the scan's index, of the slab its Session and first position
	// window are cut from, and of the stripes it is published to. A
	// Session allocated on its own, a state map, a position stream that
	// outgrows its window for three records, or a string per record is
	// over.
	const budget = 2
	if perSession > budget {
		t.Errorf("analysis scan made %.2f allocations per session, budget %d", perSession, budget)
	}
}

// TestRestartPublishesShellsUnrecovered: the analysis scan routes each
// shell into a private map of its stripe, born unrecovered, and swaps every
// stripe's map into the session table whole. After a restart with the
// sweep off, each surviving session is found by the table's own lookup,
// unrecovered, in exactly one stripe, and RecoveringSessions counts it
// once; a session that ended before the crash — its shell made and then
// ended by the scan — is in no stripe and not counted.
func TestRestartPublishesShellsUnrecovered(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef(), noSweep)
	c := e.endClient()
	cs := make([]*ClientSession, 200)
	for i := range cs {
		cs[i] = c.Session("m")
		mustCall(t, cs[i], "inc", nil)
	}
	ended := cs[len(cs)-1]
	if err := ended.End(); err != nil {
		t.Fatal(err)
	}
	cs = cs[:len(cs)-1]
	srv := e.restart("m")

	if got := srv.RecoveringSessions(); got != len(cs) {
		t.Errorf("RecoveringSessions = %d after the restart, want %d", got, len(cs))
	}
	for _, s := range cs {
		sess := srv.sessions.get(s.id)
		if sess == nil {
			t.Fatalf("session %s is not in the table after the restart", s.id)
		}
		sess.mu.Lock()
		phase := sess.phase
		sess.mu.Unlock()
		if phase != phaseUnrecovered {
			t.Errorf("session %s is in phase %d after the restart, want unrecovered", s.id, phase)
		}
	}
	if srv.sessions.get(ended.id) != nil {
		t.Errorf("ended session %s is in the table after the restart", ended.id)
	}
	n := 0
	for i := range srv.sessions.shards {
		sh := &srv.sessions.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			if stripeOf(id) != i {
				t.Errorf("session %s is in stripe %d, its hash names stripe %d", id, i, stripeOf(id))
			}
		}
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	if n != len(cs) {
		t.Errorf("the stripes hold %d sessions, want %d", n, len(cs))
	}
}
