package core

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/wal"
)

var update = flag.Bool("update", false, "rewrite testdata/journal.golden")

// durable client tests: exactly-once must survive crashes of the CLIENT,
// not just the servers.

func newDurableClientEnv(t *testing.T) (*testEnv, *simdisk.Disk) {
	e := newTestEnv(t)
	e.start("msp1", counterDef())
	return e, simdisk.NewDisk(simdisk.DefaultModel(0))
}

func mustDurable(t *testing.T, e *testEnv, disk *simdisk.Disk) *DurableClient {
	t.Helper()
	dc, err := NewDurableClient("dclient", e.net, disk, rpc.DefaultCallOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

func TestDurableClientBasicCalls(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	defer dc.Close()
	ds, err := dc.Session("msp1")
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 5; want++ {
		out, err := ds.Call("inc", nil)
		if err != nil || asU64(out) != want {
			t.Fatalf("inc = (%d, %v), want %d", asU64(out), err, want)
		}
	}
}

func TestDurableClientResumesAfterCrash(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	ds, err := dc.Session("msp1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ds.Call("inc", nil); err != nil {
			t.Fatal(err)
		}
	}
	id := ds.ID()
	dc.Crash()

	dc2 := mustDurable(t, e, disk)
	defer dc2.Close()
	restored := dc2.Sessions()[id]
	if restored == nil {
		t.Fatalf("session %s not restored; have %v", id, dc2.Sessions())
	}
	if _, _, pending := restored.Pending(); pending {
		t.Fatal("completed session should have no pending request")
	}
	// Continue exactly where we left off: the counter must be 4 —
	// proving no sequence number was reused or skipped.
	out, err := restored.Call("inc", nil)
	if err != nil || asU64(out) != 4 {
		t.Fatalf("restored session inc = (%d, %v), want 4", asU64(out), err)
	}
}

func TestDurableClientResumesInFlightRequest(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	ds, err := dc.Session("msp1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ds.Call("inc", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Send the third request but crash the client before any reply can
	// be processed: the intent is on disk, the outcome unknown. (The
	// server may or may not have executed it — here it has; the resend
	// must fetch the buffered reply, not execute again.)
	reqID := ds.ID()
	ds.dc.jmu.Lock()
	in := &intent{seq: ds.nextSeq, method: "inc"}
	if err := ds.dc.appendLocked(jrec{typ: dcIntent, id: ds.id, intent: *in}); err != nil {
		t.Fatal(err)
	}
	ds.dc.jmu.Unlock()
	// Actually deliver it once so the server executes it.
	e.net.Endpoint("dclient").Send("msp1", rpc.Request{
		Session: ds.id, Seq: in.seq, Method: "inc", From: "dclient",
	})
	dc.Crash()

	dc2 := mustDurable(t, e, disk)
	defer dc2.Close()
	restored := dc2.Sessions()[reqID]
	if restored == nil {
		t.Fatal("session not restored")
	}
	method, _, pending := restored.Pending()
	if !pending || method != "inc" {
		t.Fatalf("pending = (%q, %v), want inc", method, pending)
	}
	// Call before Resume must refuse.
	if _, err := restored.Call("inc", nil); err == nil {
		t.Fatal("Call with a pending request should fail")
	}
	out, err := restored.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if asU64(out) != 3 {
		t.Fatalf("resumed request returned %d, want 3 (duplicated or lost)", asU64(out))
	}
	// And the next call continues the sequence.
	out, err = restored.Call("inc", nil)
	if err != nil || asU64(out) != 4 {
		t.Fatalf("post-resume inc = (%d, %v), want 4", asU64(out), err)
	}
}

func TestDurableClientSurvivesServerAndClientCrash(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	ds, _ := dc.Session("msp1")
	for i := 0; i < 3; i++ {
		if _, err := ds.Call("inc", nil); err != nil {
			t.Fatal(err)
		}
	}
	id := ds.ID()
	dc.Crash()
	e.restart("msp1") // server crashes too

	dc2 := mustDurable(t, e, disk)
	defer dc2.Close()
	out, err := dc2.Sessions()[id].Call("inc", nil)
	if err != nil || asU64(out) != 4 {
		t.Fatalf("after double crash inc = (%d, %v), want 4", asU64(out), err)
	}
}

// TestJournalFormatPinned compares the journal of a session with two
// completed calls, one without an argument and one with, with
// testdata/journal.golden, one record per line as its type and payload,
// read back through the log: a begin, then an intent and a done per call.
// A journal in that format must keep restoring: without its last record,
// the second call is pending again.
func TestJournalFormatPinned(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	ds, err := dc.Session("msp1")
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range [][]byte{nil, []byte("arg")} {
		if _, err := ds.Call("inc", arg); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.Crash(); err != nil {
		t.Fatal(err)
	}

	type rec struct {
		typ     byte
		payload []byte
	}
	var recs []rec
	var got strings.Builder
	journal := openJournal(t, disk)
	if _, err := journal.Scan(0, func(_ wal.LSN, typ byte, p []byte) error {
		recs = append(recs, rec{typ, p})
		fmt.Fprintf(&got, "%02x %x\n", typ, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "journal.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("journal differs from %s\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}

	disk2 := simdisk.NewDisk(simdisk.DefaultModel(0))
	prefix := openJournal(t, disk2)
	for _, r := range recs[:len(recs)-1] {
		lsn, err := prefix.Append(r.typ, r.payload)
		if err == nil {
			err = prefix.Flush(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := prefix.Close(); err != nil {
		t.Fatal(err)
	}
	dc2 := mustDurable(t, e, disk2)
	defer dc2.Close()
	restored := dc2.Sessions()[ds.ID()]
	if restored == nil {
		t.Fatalf("session %s not restored; have %v", ds.ID(), dc2.Sessions())
	}
	if method, arg, ok := restored.Pending(); !ok || method != "inc" || string(arg) != "arg" {
		t.Fatalf("pending = (%q, %q, %v), want (inc, arg, true)", method, arg, ok)
	}
}

// openJournal opens the journal log of the client "dclient" on disk.
func openJournal(t *testing.T, disk *simdisk.Disk) *wal.Log {
	t.Helper()
	log, err := wal.Open(disk, "client/dclient", wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := log.Close(); err != nil {
			t.Error(err)
		}
	})
	return log
}

// A torn tail is cut off, and a call journalled after it survives the
// next restart.
func TestDurableClientTornJournalTail(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	ds, _ := dc.Session("msp1")
	if _, err := ds.Call("inc", nil); err != nil {
		t.Fatal(err)
	}
	dc.Crash()
	// Garbage after the last record, as a torn write leaves it.
	f := disk.OpenFile("client/dclient.000001")
	_, _ = f.WriteAt([]byte{9, 9, 9}, f.Size())
	dc2 := mustDurable(t, e, disk)
	if len(dc2.Sessions()) != 1 {
		t.Fatalf("valid journal prefix lost: %v", dc2.Sessions())
	}
	if _, err := dc2.Sessions()[ds.ID()].Call("inc", nil); err != nil {
		t.Fatal(err)
	}
	dc2.Crash()
	dc3 := mustDurable(t, e, disk)
	defer dc3.Close()
	out, err := dc3.Sessions()[ds.ID()].Call("inc", nil)
	if err != nil || asU64(out) != 3 {
		t.Fatalf("inc after two restarts = (%d, %v), want 3: the call after the repaired tail was forgotten", asU64(out), err)
	}
}

// A damaged record with valid records after it is corruption: the client
// must refuse to start rather than forget a sequence number it used.
func TestDurableClientMidJournalDamageIsCorruption(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	ds, _ := dc.Session("msp1")
	if _, err := ds.Call("inc", nil); err != nil {
		t.Fatal(err)
	}
	dc.Crash()
	var lsns []wal.LSN
	journal := openJournal(t, disk)
	if _, err := journal.Scan(0, func(lsn wal.LSN, _ byte, _ []byte) error {
		lsns = append(lsns, lsn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 3 {
		t.Fatalf("journal holds %d records, want begin, intent and done", len(lsns))
	}
	// Flip a byte of the intent. In the first segment a record's file
	// offset is its LSN.
	f := disk.OpenFile("client/dclient.000001")
	b := make([]byte, 1)
	off := int64(lsns[1]) + 8
	_, _ = f.ReadAt(b, off)
	b[0] ^= 0x40
	_, _ = f.WriteAt(b, off)
	if _, err := NewDurableClient("dclient", e.net, disk, rpc.DefaultCallOptions(0)); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("restart after damaging the intent: %v, want wal.ErrCorrupt", err)
	}
}

func TestDurableClientNewSessionsAfterRestartDontCollide(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	ds1, _ := dc.Session("msp1")
	_, _ = ds1.Call("inc", nil)
	dc.Crash()
	dc2 := mustDurable(t, e, disk)
	defer dc2.Close()
	ds2, err := dc2.Session("msp1")
	if err != nil {
		t.Fatal(err)
	}
	if ds2.ID() == ds1.ID() {
		t.Fatalf("restored client reused session ID %s", ds2.ID())
	}
	out, err := ds2.Call("inc", nil)
	if err != nil || asU64(out) != 1 {
		t.Fatalf("new session inc = (%d, %v), want 1", asU64(out), err)
	}
}

// TestCloseEndsCallInFlight: closing a client, or crashing a durable one,
// ends a call nobody will ever answer with rpc.ErrStopped, and leaves the
// request open: the sequence number does not advance and the durable
// intent stays pending.
func TestCloseEndsCallInFlight(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	nobody := e.net.Endpoint("nobody") // receives, never answers
	inFlight := func(from simnet.Addr, call func() error, stop func()) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		// The request is out once one arrives from the calling client: a
		// resend the previous, already stopped client left queued is not it.
		for m := range nobody.Recv() {
			if m.From == from {
				break
			}
		}
		stop()
		select {
		case err := <-done:
			if !errors.Is(err, rpc.ErrStopped) || isTerminal(err) {
				t.Fatalf("call after close: %v, want the non-terminal rpc.ErrStopped", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("call still resending after the client stopped")
		}
	}

	c := NewClient("c", e.net, rpc.DefaultCallOptions(0))
	cs := c.Session("nobody")
	inFlight("c", func() error { _, err := cs.Call("inc", nil); return err }, c.Close)
	if cs.nextSeq != 1 {
		t.Fatalf("sequence number moved to %d on a stopped call", cs.nextSeq)
	}

	dc := mustDurable(t, e, disk)
	ds, err := dc.Session("nobody")
	if err != nil {
		t.Fatal(err)
	}
	inFlight("dclient", func() error { _, err := ds.Call("inc", nil); return err }, func() {
		if err := dc.Crash(); err != nil {
			t.Error(err)
		}
	})
	dc2 := mustDurable(t, e, disk)
	defer dc2.Close()
	if _, _, ok := dc2.Sessions()[ds.ID()].Pending(); !ok {
		t.Fatal("the stopped call's intent is not pending after the crash")
	}
}
