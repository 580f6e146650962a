package core

import (
	"errors"
	"strings"
	"testing"

	"mspr/internal/dv"
	"mspr/internal/failpoint"
	"mspr/internal/logrec"
	"mspr/internal/simdisk"
	"mspr/internal/wal"
)

// Stable storage is the protocol's ground truth (§2): a record the log
// reports as flushed is on disk. So an error from the durability layer —
// an append, a flush, an anchor write or a head truncation — must stop
// the caller that depends on it. Each test below injects one such fault
// and fails if the error is dropped on its way up.

// Shutdown must surface the final flush's failure instead of reporting
// a clean stop when the tail never reached the disk.
func TestShutdownReturnsFlushError(t *testing.T) {
	e := newTestEnv(t)
	reg := failpoint.New(1)
	e.start("msp1", counterDef(), func(cfg *Config) { cfg.Disk.SetFailpoints(reg) })
	cs := e.endClient().Session("msp1")
	mustCall(t, cs, "inc", nil)

	// Fail the next three writes to the log file — exhausting the flush
	// path's transient-error retry budget — then leave an unflushed
	// tail: the shutdown flush must hit the injected error and report it.
	s := e.srvs["msp1"]
	reg.Enable(simdisk.FPWriteError+":msp1.log", failpoint.Times(3))
	rec := logrec.RecoveryInfo{Process: "px", CrashedEpoch: 1}
	if _, err := s.log.Append(byte(logrec.TRecoveryInfo), rec.Encode()); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.Shutdown(); err == nil {
		t.Fatal("Shutdown returned nil after its final flush failed")
	}
}

// A durable client whose journal cannot be written must not call: the
// intent record is what lets a restarted client resume the request with
// the same sequence number, so a Call that proceeds without it can
// execute twice.
func TestDurableCallFailsOnJournalWriteError(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	reg := failpoint.New(1)
	disk.SetFailpoints(reg)
	dc := mustDurable(t, e, disk)
	ds, err := dc.Session("msp1")
	if err != nil {
		t.Fatal(err)
	}
	reg.Enable(simdisk.FPWriteError, failpoint.Times(-1))
	if out, err := ds.Call("inc", nil); !errors.Is(err, simdisk.ErrTransientWrite) {
		t.Fatalf("Call on an unwritable journal = (%d, %v), want the write error", asU64(out), err)
	}

	// The failed call left nothing behind: the next incarnation of the
	// client finds no pending request, and the server never ran it.
	dc.Close()
	reg.DisableAll()
	dc = mustDurable(t, e, disk)
	defer dc.Close()
	ds = dc.Sessions()[ds.ID()]
	if _, _, ok := ds.Pending(); ok {
		t.Fatal("the failed call left a pending intent in the journal")
	}
	if out, err := ds.Call("inc", nil); err != nil || asU64(out) != 1 {
		t.Fatalf("first inc after reopen = (%d, %v), want 1", asU64(out), err)
	}
}

// A closed durable client's journal refuses the intent record, so a Call
// through it sends nothing: a request sent without its intent would
// execute under a sequence number the client's next incarnation reuses.
func TestClosedDurableClientSendsNothing(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	ds, err := dc.Session("msp1")
	if err != nil {
		t.Fatal(err)
	}
	dc.Close()
	if _, err := ds.Call("inc", nil); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Call through a closed client = %v, want wal.ErrClosed", err)
	}
	dc = mustDurable(t, e, disk)
	defer dc.Close()
	if out, err := dc.Sessions()[ds.ID()].Call("get", nil); err != nil || asU64(out) != 0 {
		t.Fatalf("first get after reopen = (%d, %v), want 0: the closed client's inc reached the server", asU64(out), err)
	}
}

// Recovery logs what it learns from the peers' broadcast acks and makes
// it durable before serving; a failed flush of it fails the restart.
func TestRecoveryFailsWhenLearnedKnowledgeFlushFails(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	e.start("msp2", counterDef())
	cs := e.endClient().Session("msp1")
	mustCall(t, cs, "inc", nil)
	e.srvs["msp1"].Crash()

	// msp2 knows of a crash that msp1 has not heard of, so msp1's restart
	// learns it from msp2's ack to its recovery broadcast.
	e.srvs["msp2"].know.Record(dv.RecoveryInfo{Process: "px", CrashedEpoch: 1, Recovered: 64})
	reg := failpoint.New(1)
	e.disks["msp1"].SetFailpoints(reg)
	// The restart's first flush is its post-recovery checkpoint; the
	// second makes the learned record durable.
	reg.Enable(wal.FPFlushCrash, failpoint.SkipFirst(1))
	srv, err := Start(e.cfgFor("msp1"))
	if err == nil {
		e.srvs["msp1"] = srv
		t.Fatal("msp1 restarted although the flush of the knowledge it learned in recovery failed")
	}
	if !failpoint.IsInjected(err) || reg.Hits(wal.FPFlushCrash) != 1 {
		t.Fatalf("restart = %v after %d flush crashes; want the one injected flush crash", err, reg.Hits(wal.FPFlushCrash))
	}

	reg.DisableAll()
	srv = e.start("msp1", counterDef())
	if _, ok := srv.know.Lookup("px", 1); !ok {
		t.Fatal("the next restart did not learn px's crash")
	}
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 2 {
		t.Fatalf("inc after recovery = %d, want 2", got)
	}
}

// A crash between segment deletions (wal.FPTruncateCrash) fails the
// checkpoint that truncates and halts the MSP, and the same fault in the
// next restart's head restore fails that restart before it scans; the
// restart after that finishes the truncation and recovers everything.
func TestTruncateErrorsFailCheckpointAndRestart(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	reg := failpoint.New(1)
	srv := e.start("msp1", counterDef(), func(c *Config) {
		c.Disk.SetFailpoints(reg)
		c.SessionCkptThreshold = 1 << 10
		c.MSPCkptEvery = 0 // the test takes the one checkpoint that truncates
		c.WalSegmentSize = 4 << 10
	})
	cs := e.endClient().Session("msp1")
	const n = 100
	for i := 0; i < n; i++ {
		mustCall(t, cs, "inc", make([]byte, 200)) // each request record fills a segment faster
	}
	if segs := srv.log.Segments(); len(segs) < 3 {
		t.Fatalf("%d log segments; the test needs sealed ones below the next head", len(segs))
	}

	reg.Enable(wal.FPTruncateCrash)
	if err := srv.writeMSPCheckpoint(); !failpoint.IsInjected(err) {
		t.Fatalf("checkpoint with a crash between segment deletions = %v, want the injected crash", err)
	}
	if reg.Hits(wal.FPTruncateCrash) != 1 || !srv.Halted() {
		t.Fatalf("%d truncation crashes, halted %v; want 1 and a halted MSP", reg.Hits(wal.FPTruncateCrash), srv.Halted())
	}

	srv.Crash()
	reg.Enable(wal.FPTruncateCrash)
	if srv, err := Start(e.cfgFor("msp1")); err == nil {
		e.srvs["msp1"] = srv
		t.Fatal("msp1 restarted although restoring its log head crashed")
	} else if !failpoint.IsInjected(err) || !strings.Contains(err.Error(), "restoring log head") {
		t.Fatalf("restart = %v; want the injected crash, reported by the head restore", err)
	}

	reg.DisableAll()
	e.start("msp1", counterDef())
	if got := asU64(mustCall(t, cs, "inc", nil)); got != n+1 {
		t.Fatalf("inc after recovery = %d, want %d", got, n+1)
	}
}
