package core

import (
	"testing"
	"time"

	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/simdisk"
	"mspr/internal/wal"
)

// TestNestedCrashDuringRecoveryAtEveryPoint arms each crash point of the
// recovery machinery in turn, crashes the MSP, and verifies that (a) the
// recovering incarnation dies at the armed point, and (b) the *next*
// incarnation — recovering from a crash that happened during recovery —
// comes up clean with exactly-once state intact.
//
// Most points fire synchronously inside Start; FPReplayMidSession fires
// in the background session replay after Start has returned, killing an
// apparently healthy incarnation, and so does FPSweepMid — in the last row
// at the third of nine units, with the rest still undelivered in the
// sweep's feeder.
func TestNestedCrashDuringRecoveryAtEveryPoint(t *testing.T) {
	points := []struct {
		name  string
		point string
		async bool
		extra int // more sessions, one request each
		skip  int // evaluations of the point to let pass
		arg   int // bytes of argument on the extra sessions' requests
	}{
		{"before-scan", FPRecoveryBeforeScan, false, 0, 0, 0},
		// Seven blocks of log and the scan dies on its first record: the
		// read-ahead producer is stopped mid-range, blocked on a full stream.
		{"mid-scan", FPRecoveryMidScan, false, 12, 0, 40 << 10},
		{"after-scan", FPRecoveryAfterScan, false, 0, 0, 0},
		{"before-broadcast", FPRecoveryBeforeBroadcast, false, 0, 0, 0},
		{"after-broadcast", FPRecoveryAfterBroadcast, false, 0, 0, 0},
		{"ckpt-before-anchor", FPCkptBeforeAnchor, false, 0, 0, 0},
		{"ckpt-before-truncate", FPCkptBeforeTruncate, false, 0, 0, 0},
		{"before-serve", FPRecoveryBeforeServe, false, 0, 0, 0},
		{"replay-mid-session", FPReplayMidSession, true, 0, 0, 0},
		{"mid-sweep", FPSweepMid, true, 0, 0, 0},
		{"mid-sweep-units-undelivered", FPSweepMid, true, 8, 2, 0},
	}
	for _, tc := range points {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEnv(t)
			defer e.cleanup()
			reg := failpoint.New(5)
			e.start("m", counterDef(), func(cfg *Config) { cfg.Disk.SetFailpoints(reg) })
			sess := e.endClient().Session("m")
			for want := uint64(1); want <= 3; want++ {
				if got := asU64(mustCall(t, sess, "inc", nil)); got != want {
					t.Fatalf("warmup #%d returned %d", want, got)
				}
			}
			extra := make([]*ClientSession, tc.extra)
			for i := range extra {
				extra[i] = e.endClient().Session("m")
				mustCall(t, extra[i], "inc", make([]byte, tc.arg))
			}
			mustCall(t, sess, "sharedInc", nil)

			e.srvs["m"].Crash()
			reg.Enable(tc.point, failpoint.SkipFirst(tc.skip), failpoint.Times(1))
			readsBefore := e.disks["m"].Stats().Reads
			s, err := Start(e.cfgFor("m"))
			if tc.async {
				// Start succeeds; the armed point kills the incarnation
				// during its background session replay.
				if err != nil {
					t.Fatalf("start: %v", err)
				}
				e.srvs["m"] = s
				deadline := time.Now().Add(2 * time.Second)
				for reg.Armed(tc.point) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if reg.Armed(tc.point) {
					t.Fatal("background replay never reached the armed point")
				}
				s.Crash()
			} else {
				if err == nil {
					s.Crash()
					t.Fatal("recovery survived its armed crash point")
				}
				if !failpoint.IsInjected(err) {
					t.Fatalf("recovery failed with a non-injected error: %v", err)
				}
				// A dead incarnation charges the disk nothing: whatever read
				// ahead of the scan was stopped and waited for inside Start.
				reads := e.disks["m"].Stats().Reads
				if tc.arg > 0 {
					live := int64(e.srvs["m"].Log().Durable() - e.srvs["m"].Log().Head())
					if blocks := live / (64 << 10); blocks < 6 || reads-readsBefore >= blocks {
						t.Fatalf("the failed Start charged %d reads of a %d-block log: the producer was not stopped mid-range", reads-readsBefore, blocks)
					}
				}
				time.Sleep(2 * time.Millisecond)
				if got := e.disks["m"].Stats().Reads; got != reads {
					t.Fatalf("log disk reads went from %d to %d after the failed Start returned", reads, got)
				}
			}
			if reg.Hits(tc.point) == 0 {
				t.Fatal("armed point was never hit")
			}

			// The nested crash left a half-recovered carcass on disk; a
			// fresh Start must recover from *that*.
			s2, err := Start(e.cfgFor("m"))
			if err != nil {
				t.Fatalf("recovery after nested crash: %v", err)
			}
			e.srvs["m"] = s2
			if got := asU64(mustCall(t, sess, "inc", nil)); got != 4 {
				t.Fatalf("after nested crash recovery inc returned %d, want 4 (exactly-once violated)", got)
			}
			for i, cs := range extra {
				if got := asU64(mustCall(t, cs, "inc", nil)); got != 2 {
					t.Fatalf("after nested crash recovery extra session %d: inc returned %d, want 2", i, got)
				}
			}
		})
	}
}

// TestRepeatedNestedRecoveryCrashes chains nested crashes: every restart
// dies at a different recovery point before one is finally allowed to
// finish. State must come through exactly once.
func TestRepeatedNestedRecoveryCrashes(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	reg := failpoint.New(6)
	e.start("m", counterDef(), func(cfg *Config) { cfg.Disk.SetFailpoints(reg) })
	sess := e.endClient().Session("m")
	for want := uint64(1); want <= 5; want++ {
		mustCall(t, sess, "inc", nil)
	}
	e.srvs["m"].Crash()
	chain := []string{FPRecoveryBeforeScan, FPRecoveryMidScan, FPRecoveryBeforeBroadcast, FPCkptBeforeAnchor}
	for _, p := range chain {
		reg.Enable(p, failpoint.Times(1))
		if _, err := Start(e.cfgFor("m")); !failpoint.IsInjected(err) {
			t.Fatalf("start with %s armed: err = %v, want injected", p, err)
		}
	}
	s, err := Start(e.cfgFor("m"))
	if err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	e.srvs["m"] = s
	if got := asU64(mustCall(t, sess, "inc", nil)); got != 6 {
		t.Fatalf("after %d nested recovery crashes inc returned %d, want 6", len(chain), got)
	}
}

// TestRecoveryCountersAdvance checks the observability counters recorded
// by the recovery path (process-wide, so deltas are asserted).
func TestRecoveryCountersAdvance(t *testing.T) {
	recBefore := metrics.Recovery.RecoveriesCompleted.Load()
	repBefore := metrics.Recovery.SessionsReplayed.Load()
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef())
	sess := e.endClient().Session("m")
	for want := uint64(1); want <= 3; want++ {
		mustCall(t, sess, "inc", nil)
	}
	e.restart("m")
	if got := asU64(mustCall(t, sess, "inc", nil)); got != 4 {
		t.Fatalf("inc after restart returned %d, want 4", got)
	}
	if d := metrics.Recovery.RecoveriesCompleted.Load() - recBefore; d < 1 {
		t.Fatalf("RecoveriesCompleted advanced by %d, want >= 1", d)
	}
	if d := metrics.Recovery.SessionsReplayed.Load() - repBefore; d < 1 {
		t.Fatalf("SessionsReplayed advanced by %d, want >= 1", d)
	}
}

// TestOrphanRecoveryWithNestedMSP2RecoveryCrash is the §5.4 orphan
// scenario compounded: msp2 dies holding buffered records AND its
// replacement incarnation dies again in the middle of its own recovery
// (the testEnv restart retries until one survives). The orphaned caller
// session must still complete exactly once.
func TestOrphanRecoveryWithNestedMSP2RecoveryCrash(t *testing.T) {
	points := []struct{ name, point string }{
		{"mid-scan", FPRecoveryMidScan},
		{"before-broadcast", FPRecoveryBeforeBroadcast},
		{"ckpt-before-anchor", FPCkptBeforeAnchor},
	}
	for _, tc := range points {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			reg2 := failpoint.New(9)
			cs := newCrashySystem(t, func(cfg *Config) {
				if cfg.ID == "msp2" {
					cfg.Disk.SetFailpoints(reg2)
				}
			})
			defer cs.e.cleanup()
			sess := cs.e.endClient().Session("msp1")
			for want := uint64(1); want <= 3; want++ {
				if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
					t.Fatalf("warmup #%d returned %d", want, got)
				}
			}
			// msp2's next recovery dies at the armed point before the
			// retried recovery succeeds.
			reg2.Enable(tc.point, failpoint.Times(1))
			cs.armCrash.Store(true)
			if got := asU64(mustCall(t, sess, "method1", nil)); got != 4 {
				t.Fatalf("crash-injected request returned %d, want 4", got)
			}
			cs.crashWG.Wait()
			if reg2.Hits(tc.point) == 0 {
				t.Fatal("msp2's recovery never hit the armed point")
			}
			if cs.e.srvs["msp1"].Stats().OrphanRecoveries.Load() == 0 {
				t.Fatal("msp1 never performed orphan recovery")
			}
			for want := uint64(5); want <= 7; want++ {
				if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
					t.Fatalf("post-recovery #%d returned %d", want, got)
				}
			}
		})
	}
}

// TestDisjointEOSRegionsSurviveCallerCrashes drives two separated orphan
// episodes (two disjoint EOS-pruned regions in msp1's log, Fig. 11
// "disjoint" case), then crashes msp1 repeatedly — once with a nested
// crash planted in its own recovery — and verifies scan-time pruning
// keeps execution exactly-once.
func TestDisjointEOSRegionsSurviveCallerCrashes(t *testing.T) {
	reg1 := failpoint.New(13)
	cs := newCrashySystem(t, func(cfg *Config) {
		if cfg.ID == "msp1" {
			cfg.Disk.SetFailpoints(reg1)
		}
	})
	defer cs.e.cleanup()
	sess := cs.e.endClient().Session("msp1")
	want := uint64(0)
	eosBefore := metrics.Recovery.EOSWritten.Load()
	for episode := 0; episode < 2; episode++ {
		for i := 0; i < 2; i++ {
			want++
			if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
				t.Fatalf("episode %d: request returned %d, want %d", episode, got, want)
			}
		}
		cs.armCrash.Store(true)
		want++
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("episode %d crash request returned %d, want %d", episode, got, want)
		}
		cs.crashWG.Wait()
		// One more request after the orphan recovery so the EOS record is
		// carried to disk by the reply's flush.
		want++
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("episode %d post-orphan request returned %d, want %d", episode, got, want)
		}
	}
	if d := metrics.Recovery.EOSWritten.Load() - eosBefore; d < 2 {
		t.Fatalf("EOSWritten advanced by %d, want >= 2 (two orphan episodes)", d)
	}

	// Crash msp1 with a nested crash planted mid-scan: the scan that
	// prunes both EOS regions is itself interrupted and rerun.
	reg1.Enable(FPRecoveryMidScan, failpoint.Times(1))
	cs.e.restart("msp1")
	if reg1.Hits(FPRecoveryMidScan) == 0 {
		t.Fatal("msp1's recovery never hit the armed mid-scan point")
	}
	want++
	if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
		t.Fatalf("after EOS-pruned recovery request returned %d, want %d", got, want)
	}

	// And once more without injection, for good measure.
	cs.e.restart("msp1")
	want++
	if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
		t.Fatalf("after second recovery request returned %d, want %d", got, want)
	}
}

// TestEmbeddedEOSRegionsSurviveCallerCrash drives the Fig. 11 "embedded"
// shape: an orphan episode, then — before any checkpoint moves the scan
// start past it — msp1 crashes and recovers (writing nothing new), and a
// *second* orphan episode lands in the same log region. The rescan sees
// both EOS records, the second nested inside the span the first already
// prunes partially.
func TestEmbeddedEOSRegionsSurviveCallerCrash(t *testing.T) {
	cs := newCrashySystem(t, func(cfg *Config) {
		// A huge checkpoint threshold keeps both episodes inside one
		// scan region.
		cfg.SessionCkptThreshold = 1 << 30
	})
	defer cs.e.cleanup()
	sess := cs.e.endClient().Session("msp1")
	want := uint64(0)
	for episode := 0; episode < 2; episode++ {
		cs.armCrash.Store(true)
		want++
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("episode %d crash request returned %d, want %d", episode, got, want)
		}
		cs.crashWG.Wait()
		want++
		if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
			t.Fatalf("episode %d post-orphan request returned %d, want %d", episode, got, want)
		}
		// msp1 crashes between the episodes (and after the second): its
		// analysis scan replays the accumulated region each time.
		cs.e.restart("msp1")
	}
	want++
	if got := asU64(mustCall(t, sess, "method1", nil)); got != want {
		t.Fatalf("final request returned %d, want %d", got, want)
	}
}

// TestTornLogTailRecoveredByCore crashes the MSP with a torn WAL write
// planted in its next flush: the flush fails (never acknowledged), the
// incarnation wedges and is crashed, and the next recovery's analysis
// scan must truncate the torn tail and continue. The tear point within
// the write is random: a cut inside the rewritten (already durable)
// prefix or the trailing sector padding leaves no visible damage, so the
// tear is re-armed until a scan actually finds and truncates a corrupt
// tail — exactly-once must hold in every round either way.
func TestTornLogTailRecoveredByCore(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	reg := failpoint.New(17)
	e.start("m", counterDef(), func(cfg *Config) { cfg.Disk.SetFailpoints(reg) })
	sess := e.endClient().Session("m")
	want := uint64(0)
	for want < 3 {
		want++
		if got := asU64(mustCall(t, sess, "inc", nil)); got != want {
			t.Fatalf("inc returned %d, want %d", got, want)
		}
	}
	truncBefore := metrics.Recovery.CorruptTailTruncations.Load()
	point := simdisk.FPWriteTorn + ":m.log"

	truncated := false
	for round := 0; round < 10 && !truncated; round++ {
		// The next flush tears 20 bytes past the partial sector it
		// rewrites — inside its first new frame, so the tear is
		// CRC-visible (a random cut usually lands in the rewritten prefix
		// or the sector's zero padding, where it destroys nothing). The
		// log is one segment, whose file offsets are LSNs. The reply for
		// this request is never sent, the client keeps resending, and the
		// restarted incarnation repairs the tail and re-executes exactly
		// once.
		prefix := int64(e.srvs["m"].Log().Durable()) % simdisk.SectorSize
		reg.Enable(point, failpoint.Times(1), failpoint.Arg(prefix+20))
		want++
		done := make(chan uint64, 1)
		go func() {
			out, err := sess.Call("inc", nil)
			if err != nil {
				done <- 0
				return
			}
			done <- asU64(out)
		}()
		deadline := time.Now().Add(2 * time.Second)
		for reg.Armed(point) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if reg.Armed(point) {
			t.Fatal("torn-write point never hit")
		}
		e.restart("m")
		if got := <-done; got != want {
			t.Fatalf("inc across torn-tail crash returned %d, want %d", got, want)
		}
		truncated = metrics.Recovery.CorruptTailTruncations.Load() > truncBefore
	}
	if !truncated {
		t.Fatal("no torn write produced a corrupt-tail truncation in 10 rounds")
	}
	want++
	if got := asU64(mustCall(t, sess, "inc", nil)); got != want {
		t.Fatalf("inc after repair returned %d, want %d", got, want)
	}
}

// TestAnchorFallbackRecoveredByCore plants a torn anchor write in the
// MSP's next checkpoint; recovery must fall back to the surviving anchor
// slot and still come up exactly-once.
func TestAnchorFallbackRecoveredByCore(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	reg := failpoint.New(19)
	e.start("m", counterDef(), func(cfg *Config) { cfg.Disk.SetFailpoints(reg) })
	sess := e.endClient().Session("m")
	for want := uint64(1); want <= 3; want++ {
		mustCall(t, sess, "inc", nil)
	}
	fbBefore := metrics.Recovery.AnchorFallbacks.Load()

	// The next anchor write — recovery's own checkpoint — tears, killing
	// that incarnation; the retry reads the surviving slot.
	e.srvs["m"].Crash()
	reg.Enable(wal.FPAnchorCrash, failpoint.Times(1))
	if _, err := Start(e.cfgFor("m")); !failpoint.IsInjected(err) {
		t.Fatalf("start with torn anchor: err = %v, want injected", err)
	}
	s, err := Start(e.cfgFor("m"))
	if err != nil {
		t.Fatalf("recovery after torn anchor: %v", err)
	}
	e.srvs["m"] = s
	if got := asU64(mustCall(t, sess, "inc", nil)); got != 4 {
		t.Fatalf("inc after anchor fallback returned %d, want 4", got)
	}
	if d := metrics.Recovery.AnchorFallbacks.Load() - fbBefore; d < 1 {
		t.Fatalf("AnchorFallbacks advanced by %d, want >= 1", d)
	}
}
