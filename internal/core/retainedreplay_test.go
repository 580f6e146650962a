package core

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"mspr/internal/dv"
	"mspr/internal/failpoint"
	"mspr/internal/logrec"
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simnet"
)

// retainedRefs counts the position-stream entries (checkpoints included)
// of srv's sessions that still hold a record from the analysis scan.
func retainedRefs(srv *Server) int {
	n := 0
	srv.sessions.forEach(func(sess *Session) { n += sess.retainedRefs() })
	return n
}

func (se *Session) retainedRefs() int {
	se.mu.Lock()
	defer se.mu.Unlock()
	n := 0
	for _, e := range append(se.pos.snapshot(), se.pos.ckpt) {
		if e.typ != 0 || e.payload != nil {
			n++
		}
	}
	return n
}

// walkRecovering is what RecoveringSessions used to compute: a walk of the
// session table counting the sessions that owe a replay.
func walkRecovering(srv *Server) int {
	n := 0
	srv.sessions.forEach(func(sess *Session) {
		if sess.pendingReplay() {
			n++
		}
	})
	return n
}

func awaitDrained(t *testing.T, srv *Server) {
	t.Helper()
	waitFor(t, 20*time.Second, "recovery drain", func() bool { return srv.RecoveringSessions() == 0 })
}

// assertNothingRetained checks both views of "no session still references
// retained bytes": the server's accounting and the streams themselves.
func assertNothingRetained(t *testing.T, srv *Server, when string) {
	t.Helper()
	if held := srv.retained.held.Load(); held != 0 {
		t.Errorf("%s: %d retained bytes still accounted", when, held)
	}
	if refs := retainedRefs(srv); refs != 0 {
		t.Errorf("%s: %d stream entries still hold a retained record", when, refs)
	}
}

// TestRecoveryDrainReadsLogOnce is the read-amplification guard: the
// analysis scan is the only time recovery reads a record. 600 sessions log
// three requests each in a shuffled order — so the sessions interleave all
// over a log several times the size of the read cache, and no ordering of
// the sweep can turn per-session reads into sequential ones — and the whole
// restart, from Start to the last session live, may cost only the scan's
// sequential block reads. The budget is what it was before the scan was
// streamed: a completed scan reads exactly the blocks it read then, each
// once, only earlier — the producer reads while the block before is parsed.
func TestRecoveryDrainReadsLogOnce(t *testing.T) {
	const (
		sessions = 600
		logged   = 3
		block    = 64 << 10 // the log's read-ahead block
	)
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("m", counterDef())
	c := e.endClient()
	cs := make([]*ClientSession, sessions)
	var order []int
	for i := range cs {
		cs[i] = c.Session("m")
		for k := 0; k < logged; k++ {
			order = append(order, i)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	arg := bytes.Repeat([]byte{0xAB}, 512)
	for _, i := range order {
		mustCall(t, cs[i], "inc", arg)
	}
	live := int64(srv.Log().Durable() - srv.Log().Head())
	if live < 12*block {
		t.Fatalf("live log is %d bytes: too small against the 8 × 64 KB read cache to show amplification", live)
	}

	srv.Crash()
	before := e.disks["m"].Stats().Reads
	srv = e.start("m", e.defs["m"])
	awaitDrained(t, srv)
	reads := e.disks["m"].Stats().Reads - before
	blocks := (live + block - 1) / block
	if limit := blocks*3/2 + 8; reads > limit {
		t.Errorf("restart charged %d disk reads for a %d-block live log, want at most %d: replay is re-reading the log",
			reads, blocks, limit)
	}
	if got := srv.Stats().OrphanRecoveries.Load(); got != 0 {
		t.Errorf("OrphanRecoveries = %d after a plain crash-restart drain, want 0", got)
	}
	assertNothingRetained(t, srv, "after the drain")
	for i, s := range cs {
		if got := asU64(mustCall(t, s, "inc", nil)); got != logged+1 {
			t.Fatalf("session %d answered %d after the restart, want %d", i, got, logged+1)
		}
	}
}

// TestLazyClaimReadsNothing: right after Start, a request into a session
// not yet replayed decodes the checkpoint and replays the records the scan
// left in the stream — without a single disk read. The scan's read-ahead
// producer cannot add one either: it has exited before Start returns.
func TestLazyClaimReadsNothing(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	// A checkpoint every other request, so the claim starts from one.
	e.start("m", counterDef(), noSweep, func(cfg *Config) { cfg.SessionCkptThreshold = 400 })
	c := e.endClient()
	cs := []*ClientSession{c.Session("m"), c.Session("m"), c.Session("m")}
	arg := bytes.Repeat([]byte{1}, 300)
	for k := 0; k < 3; k++ {
		for _, s := range cs {
			mustCall(t, s, "inc", arg)
		}
	}
	if e.srvs["m"].Stats().SessionCkpts.Load() == 0 {
		t.Fatal("no session checkpoint was taken: the test would not cover the checkpoint read")
	}
	srv := e.restart("m")
	before := e.disks["m"].Stats().Reads
	if got := asU64(mustCall(t, cs[1], "inc", nil)); got != 4 {
		t.Fatalf("lazy claim answered %d, want 4", got)
	}
	if reads := e.disks["m"].Stats().Reads - before; reads != 0 {
		t.Errorf("lazy claim charged %d disk reads, want 0", reads)
	}
	if got, want := srv.RecoveringSessions(), len(cs)-1; got != want {
		t.Errorf("RecoveringSessions = %d after one lazy claim, want %d", got, want)
	}
}

// TestAnalysisScanIsStreamed: a 1 000-session recovery takes its scan's
// blocks from the read-ahead stream — all of them but two at most — so the
// reads overlapped the parsing. Counters, not a clock, say so. The log is
// packed, so frames — headers included — straddle block boundaries; the
// scan serves such a frame from the two streamed blocks it spans, without
// reading either again.
func TestAnalysisScanIsStreamed(t *testing.T) {
	const (
		sessions = 1000
		block    = 64 << 10
	)
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("m", counterDef())
	c := e.endClient()
	cs := make([]*ClientSession, sessions)
	arg := bytes.Repeat([]byte{0xCD}, 512)
	for i := range cs {
		cs[i] = c.Session("m")
		mustCall(t, cs[i], "inc", arg)
	}
	blocks := (int64(srv.Log().Durable()-srv.Log().Head()) + block - 1) / block
	if blocks < 8 {
		t.Fatalf("the live log is %d blocks: too short to show a stream", blocks)
	}
	srv.Crash()
	w := &metrics.Wal
	streamed, synced, recs := w.ScanBlocksStreamed.Load(), w.ScanBlocksSync.Load(), w.ScanRecords.Load()
	reads := e.disks["m"].Stats().Reads
	srv = e.start("m", e.defs["m"], noSweep)
	streamed, synced, recs = w.ScanBlocksStreamed.Load()-streamed, w.ScanBlocksSync.Load()-synced, w.ScanRecords.Load()-recs
	reads = e.disks["m"].Stats().Reads - reads
	if synced > 2 || streamed < blocks-2 {
		t.Errorf("the scan of a %d-block log took %d blocks from the stream and read %d itself, want all but 2 at most streamed", blocks, streamed, synced)
	}
	if reads > streamed+synced+1 { // + the checkpoint record's block, read before the scan
		t.Errorf("Start charged %d reads for %d streamed and %d synchronous blocks: a block was read twice", reads, streamed, synced)
	}
	if recs < 2*sessions {
		t.Errorf("the scan counted %d records, want at least a start and a request for each of %d sessions", recs, sessions)
	}
	if got := srv.RecoveringSessions(); got != sessions {
		t.Errorf("RecoveringSessions = %d after the scan, want %d", got, sessions)
	}
}

// restartOverBudget gives MSP "m" twenty sessions of three logged "inc"
// requests each and restarts it, sweep off, under a retention budget too
// small for that log: most records are left as bare positions.
func restartOverBudget(t *testing.T, budget int64) (*testEnv, []*ClientSession, *Server) {
	retainBudgetHook = budget
	t.Cleanup(func() { retainBudgetHook = retainBudget })
	e := newTestEnv(t)
	t.Cleanup(e.cleanup)
	e.start("m", counterDef(), noSweep)
	c := e.endClient()
	cs := make([]*ClientSession, 20)
	for i := range cs {
		cs[i] = c.Session("m")
	}
	for k := 0; k < 3; k++ {
		for _, s := range cs {
			mustCall(t, s, "inc", nil)
		}
	}
	return e, cs, e.restart("m")
}

// TestRetainBudgetFallsBackToLog: with a budget too small for the log, the
// records past it are left as bare positions, replay reads those from the
// log, and recovery is still exact.
func TestRetainBudgetFallsBackToLog(t *testing.T) {
	const budget = 256
	e, cs, srv := restartOverBudget(t, budget)
	if held := srv.retained.held.Load(); held <= 0 || held > budget {
		t.Fatalf("retained %d bytes under a %d-byte budget", held, budget)
	}
	bare := 0
	srv.sessions.forEach(func(sess *Session) {
		for _, e := range sess.posSnapshot() {
			if e.typ == 0 {
				bare++
			}
		}
	})
	if bare == 0 {
		t.Fatal("every record fit the budget: the fallback is not exercised")
	}
	before := e.disks["m"].Stats().Reads
	for i, s := range cs {
		if got := asU64(mustCall(t, s, "inc", nil)); got != 4 {
			t.Fatalf("session %d answered %d, want 4", i, got)
		}
	}
	if e.disks["m"].Stats().Reads == before {
		t.Error("no disk read during replay: bare positions were not read from the log")
	}
	assertNothingRetained(t, srv, "after every session replayed")
}

// TestReplayReadErrorIsFailStop: a replay that cannot read one of its
// records must not put the half-replayed session back in service. The
// budget leaves most records to be read from the log; the log then loses
// them (its head moves past every session record), so the first lazy
// claim replays the little that was retained and hits a read error. The
// incarnation must halt with the session still owing its replay — it used
// to go back to idle on a running server and answer 2 where the client
// had seen 3.
func TestReplayReadErrorIsFailStop(t *testing.T) {
	_, _, srv := restartOverBudget(t, 256)
	var victim *Session
	srv.sessions.forEach(func(sess *Session) {
		pos := sess.posSnapshot()
		if victim == nil && pos[1].typ != 0 && pos[len(pos)-1].typ == 0 {
			victim = sess // its first request is retained, its last is not
		}
	})
	if victim == nil {
		t.Fatal("no session has both a retained and a bare record: the budget needs retuning")
	}
	if err := srv.log.TruncateHead(srv.log.Next()); err != nil {
		t.Fatal(err)
	}
	if !victim.claimForReplay() {
		t.Fatal("victim session was not awaiting replay")
	}
	srv.runSessionRecovery(victim)
	if srv.getState() != stateCrashed {
		t.Error("a replay read error left the incarnation running")
	}
	if !victim.pendingReplay() {
		t.Error("the half-replayed session was returned to service")
	}
}

// TestRestartedReplayReusesRetainedRecords drives Fig. 11 through the
// retained records: msp1 replays a session after its own crash, and midway
// learns that msp2 crashed too — a reply it has already replayed is an
// orphan. The replay starts over from the same retained entries (decoding
// each a second time), finds the orphan record, and finishes the request
// live, all without reading the log.
func TestRestartedReplayReusesRetainedRecords(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	const (
		hookOff int32 = iota
		hookHold
		hookLearn
	)
	var (
		mode     atomic.Int32
		entered  = make(chan struct{})
		hold     = make(chan struct{})
		seq2Runs atomic.Int32
		// srv2 is msp2's restarted incarnation, set before msp1 restarts:
		// msp1's replay reads it while the test goroutine writes e.srvs.
		srv2 *Server
	)
	def2 := Definition{Methods: map[string]Handler{
		"method2": func(ctx *Ctx, arg []byte) ([]byte, error) {
			n := asU64(ctx.GetVar("n")) + 1
			ctx.SetVar("n", u64(n))
			return u64(n), nil
		},
	}}
	def1 := Definition{
		Methods: map[string]Handler{
			"method1": func(ctx *Ctx, arg []byte) ([]byte, error) {
				out, err := ctx.Call("msp2", "method2", nil)
				if err != nil {
					return nil, err
				}
				if ctx.RequestSeq() == 2 {
					seq2Runs.Add(1)
					switch {
					case mode.CompareAndSwap(hookHold, hookOff):
						entered <- struct{}{}
						<-hold
					case mode.CompareAndSwap(hookLearn, hookOff):
						// msp2's recovery message arrives now, after the
						// replay has merged the orphan reply's DV.
						e.net.Heal()
						for _, info := range srv2.know.Snapshot() {
							ctx.srv.know.Record(info)
						}
					}
				}
				if _, err := ctx.ReadShared("sv"); err != nil { // an interception point
					return nil, err
				}
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return append(u64(n), out...), nil
			},
		},
		Shared: []SharedDef{{Name: "sv", Initial: u64(0)}},
	}
	e.start("msp2", def2)
	srv1 := e.start("msp1", def1, noSweep)
	cs := e.endClient().Session("msp1")
	if got := asU64(mustCall(t, cs, "method1", nil)); got != 1 {
		t.Fatalf("warmup answered %d, want 1", got)
	}

	// Request 2 gets as far as msp2's reply, which msp1 makes durable while
	// msp2 has flushed nothing; then both die. msp2 comes back first.
	mode.Store(hookHold)
	done := make(chan []byte, 1)
	go func() {
		out, err := cs.Call("method1", nil)
		if err != nil {
			t.Errorf("request 2: %v", err)
		}
		done <- out
	}()
	<-entered
	if err := srv1.Log().Flush(srv1.Log().LastAppended()); err != nil {
		t.Fatal(err)
	}
	srv1.halt()
	close(hold)
	srv1.Crash()
	// msp1 restarts cut off from msp2, so it starts replaying without
	// knowing that msp2's epoch 1 lost the state request 2's reply carried.
	// The partition goes up before msp2 restarts: simnet applies it when a
	// message is sent, so neither msp2's recovery broadcast nor its
	// re-announce can reach msp1's next incarnation. The client is cut off
	// from msp1 until the checks below have read their baselines: its
	// resend of request 2 starts the replay, whose hook tells msp1.
	e.net.Partition([]simnet.Addr{"msp1"}, []simnet.Addr{"msp2", "client"})
	srv2 = e.restart("msp2")

	seq2Runs.Store(0)
	mode.Store(hookLearn)
	srv1 = e.start("msp1", def1)
	if _, orphan := srv1.know.OrphanIn(dv.Vector{{Process: "msp2", Epoch: 1}: 1 << 40}); orphan {
		t.Fatal("msp1 learnt of msp2's crash during its own recovery: the replay would not restart")
	}
	before := e.disks["msp1"].Stats().Reads
	eos := metrics.Recovery.EOSWritten.Load()
	e.net.Partition([]simnet.Addr{"msp1", "client"}, []simnet.Addr{"msp2"})

	out := <-done // the client's resend claims the session
	if got := asU64(out); got != 2 {
		t.Fatalf("request 2 answered %d, want 2", got)
	}
	if got := asU64(out[8:]); got != 2 {
		t.Fatalf("method2 answered %d to request 2, want 2 (its first execution was lost with msp2)", got)
	}
	if got := seq2Runs.Load(); got != 2 {
		t.Fatalf("request 2's method ran %d times in the replay, want 2 (once per pass)", got)
	}
	if reads := e.disks["msp1"].Stats().Reads - before; reads != 0 {
		t.Errorf("the restarted replay charged %d disk reads, want 0", reads)
	}
	if metrics.Recovery.EOSWritten.Load() == eos {
		t.Error("no EOS record written: the second pass did not end at the orphan record")
	}
	assertNothingRetained(t, srv1, "after the restarted replay")
	if got := asU64(mustCall(t, cs, "method1", nil)); got != 3 {
		t.Fatalf("request 3 answered %d, want 3", got)
	}
}

// TestScanRetainsOnlyLatestCheckpoint: of two session checkpoints in the
// scanned log, the stream keeps the later one and only what follows it.
func TestScanRetainsOnlyLatestCheckpoint(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef(), noSweep, func(cfg *Config) { cfg.SessionCkptThreshold = 400 })
	cs := e.endClient().Session("m")
	arg := bytes.Repeat([]byte{1}, 300)
	for k := 0; k < 5; k++ { // checkpoints after requests 2 and 4
		mustCall(t, cs, "inc", arg)
	}
	if got := e.srvs["m"].Stats().SessionCkpts.Load(); got != 2 {
		t.Fatalf("%d session checkpoints before the crash, want 2", got)
	}
	srv := e.restart("m")
	sessions := srv.sessions.snapshot()
	if len(sessions) != 1 {
		t.Fatalf("%d sessions after the scan, want 1", len(sessions))
	}
	sess := sessions[0]
	ckpt, stream := sess.lastCkpt(), sess.posSnapshot()
	if logrec.Type(ckpt.typ) != logrec.TSessionCkpt {
		t.Fatalf("retained checkpoint has type %v", logrec.Type(ckpt.typ))
	}
	rec, err := logrec.DecodeSessionCheckpoint(ckpt.payload)
	if err != nil || rec.NextExpected != 5 {
		t.Fatalf("retained checkpoint: next expected %d, err %v; want the later one (5)", rec.NextExpected, err)
	}
	if len(stream) != 1 || stream[0].lsn <= ckpt.lsn || logrec.Type(stream[0].typ) != logrec.TReqReceive {
		t.Fatalf("stream after the checkpoint at %d: %+v, want request 5's receive record alone", ckpt.lsn, stream)
	}
	if got, want := srv.retained.held.Load(), int64(len(ckpt.payload)+len(stream[0].payload)); got != want {
		t.Fatalf("%d bytes accounted, want %d: the earlier checkpoint or its positions are still charged", got, want)
	}
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 6 {
		t.Fatalf("after the restart inc answered %d, want 6", got)
	}
}

// TestRetainedRecordsReleased: retained bytes are held only while a replay
// is owed — not after the drain, not by an ended session, not by an
// incarnation that died mid-sweep.
func TestRetainedRecordsReleased(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	reg := failpoint.New(3)
	e.start("m", counterDef(), func(cfg *Config) { cfg.Disk.SetFailpoints(reg) })
	c := e.endClient()
	cs := make([]*ClientSession, 16)
	for i := range cs {
		cs[i] = c.Session("m")
		mustCall(t, cs[i], "inc", nil)
		mustCall(t, cs[i], "inc", nil)
	}

	// Mid-sweep crash: some units replayed, most still pending.
	e.srvs["m"].Crash()
	reg.Enable(FPSweepMid, failpoint.SkipFirst(4), failpoint.Times(1))
	srv := e.start("m", e.defs["m"])
	waitFor(t, 5*time.Second, "the sweep to hit its crash point", func() bool { return !reg.Armed(FPSweepMid) })
	srv.Crash()
	if walkRecovering(srv) == 0 {
		t.Fatal("the sweep finished before its crash point: nothing was pending at the crash")
	}
	assertNothingRetained(t, srv, "after a crash mid-sweep")

	// Drain.
	srv = e.start("m", e.defs["m"])
	if srv.retained.held.Load() == 0 && srv.RecoveringSessions() > 0 {
		t.Fatal("nothing retained while sessions still owe a replay")
	}
	awaitDrained(t, srv)
	assertNothingRetained(t, srv, "after the drain")

	// End, of a session the analysis scan has just filled: lazily replayed
	// sessions first, so that End is served from replayed state.
	srv.Crash()
	e.muts["m"] = append(e.muts["m"], noSweep)
	srv = e.start("m", e.defs["m"])
	ended := srv.sessions.get(cs[0].ID())
	if ended == nil || ended.retainedRefs() == 0 {
		t.Fatal("the session to end holds no retained record before its replay")
	}
	if err := cs[0].End(); err != nil {
		t.Fatal(err)
	}
	if refs := ended.retainedRefs(); refs != 0 {
		t.Errorf("ended session still holds %d retained records", refs)
	}
	if got, want := srv.RecoveringSessions(), walkRecovering(srv); got != want || want != len(cs)-1 {
		t.Errorf("after End: RecoveringSessions = %d, table walk = %d, want %d", got, want, len(cs)-1)
	}
}

// TestRecoveringSessionsMatchesTableWalk: the counter RecoveringSessions
// reads is the table walk it replaced, at every quiescent point: after lazy
// replays, after the sweep, after an orphan recovery and after End.
func TestRecoveringSessionsMatchesTableWalk(t *testing.T) {
	check := func(t *testing.T, srv *Server, when string, want int) {
		t.Helper()
		if got, walk := srv.RecoveringSessions(), walkRecovering(srv); got != walk || walk != want {
			t.Errorf("%s: RecoveringSessions = %d, table walk = %d, want %d", when, got, walk, want)
		}
	}
	t.Run("lazy-sweep-end", func(t *testing.T) {
		e := newTestEnv(t)
		defer e.cleanup()
		e.start("m", counterDef(), noSweep)
		c := e.endClient()
		cs := make([]*ClientSession, 10)
		for i := range cs {
			cs[i] = c.Session("m")
			mustCall(t, cs[i], "inc", nil)
		}
		srv := e.restart("m")
		check(t, srv, "after analysis", len(cs))
		done := make(chan struct{})
		for _, s := range cs[:4] { // concurrent lazy claims
			go func(s *ClientSession) {
				defer func() { done <- struct{}{} }()
				if _, err := s.Call("inc", nil); err != nil {
					t.Error(err)
				}
			}(s)
		}
		for range cs[:4] {
			<-done
		}
		check(t, srv, "after four lazy replays", len(cs)-4)
		if err := cs[0].End(); err != nil { // a live session
			t.Fatal(err)
		}
		if err := cs[9].End(); err != nil { // one that End itself has to replay first
			t.Fatal(err)
		}
		check(t, srv, "after End", len(cs)-5)

		e.muts["m"] = []func(*Config){func(*Config) {}} // sweep back on
		srv = e.restart("m")
		awaitDrained(t, srv)
		check(t, srv, "after the sweep", 0)
	})
	t.Run("orphan-recovery", func(t *testing.T) {
		cs := newCrashySystem(t)
		defer cs.e.cleanup()
		sess := cs.e.endClient().Session("msp1")
		mustCall(t, sess, "method1", nil)
		cs.armCrash.Store(true)
		if got := asU64(mustCall(t, sess, "method1", nil)); got != 2 {
			t.Fatalf("request across the orphan recovery answered %d, want 2", got)
		}
		srv := cs.e.srvs["msp1"]
		if srv.Stats().OrphanRecoveries.Load() == 0 {
			t.Fatal("no orphan recovery ran")
		}
		check(t, srv, "after an orphan recovery", 0)
	})
}

// TestDuplicateEndFinishesTheEnd: an End whose acknowledgement could not be
// flushed (a dependency's peer was unreachable) keeps the session so that
// the client's resend can be answered; that resend — a duplicate — must then
// finish the end. It used to re-send the acknowledgement and leave the
// session in the table until the next crash.
func TestDuplicateEndFinishesTheEnd(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	def1 := Definition{Methods: map[string]Handler{
		"dep": func(ctx *Ctx, arg []byte) ([]byte, error) { return ctx.Call("msp2", "inc", nil) },
	}}
	e.start("msp2", counterDef())
	srv1 := e.start("msp1", def1)
	cli := e.net.Endpoint("cli")
	if rep := callRaw(t, cli, rpc.Request{Session: "end#1", Seq: 1, Method: "dep", NewSession: true, From: cli.Addr()}); rep.Status != rpc.StatusOK {
		t.Fatalf("dep: status %v", rep.Status)
	}

	// The End's flush has to reach msp2, which the partition prevents.
	e.net.Partition([]simnet.Addr{"msp1"}, []simnet.Addr{"msp2"})
	end := rpc.Request{Session: "end#1", Seq: 2, EndSession: true, From: cli.Addr()}
	cli.Send("msp1", end)
	if rep := awaitReply(t, cli, 2); rep.Status != rpc.StatusBusy {
		t.Fatalf("End behind the partition: status %v, want Busy", rep.Status)
	}
	if srv1.sessions.get("end#1") == nil {
		t.Fatal("the unacknowledged End already dropped the session: its resend could not be answered")
	}

	e.net.Heal()
	if rep := callRaw(t, cli, end); rep.Status != rpc.StatusOK {
		t.Fatalf("resent End after the heal: status %v, want OK", rep.Status)
	}
	if srv1.sessions.get("end#1") != nil {
		t.Fatal("the acknowledged End left its session in the table")
	}
	if got, walk := srv1.RecoveringSessions(), walkRecovering(srv1); got != 0 || walk != 0 {
		t.Fatalf("RecoveringSessions = %d, table walk = %d, want 0", got, walk)
	}
}
