package core

import (
	"encoding/binary"
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
// testdata/journal.golden, one frame per line: a begin, then an intent
// and a done per call. A journal in that format must keep restoring:
// without its last frame, the second call is pending again.
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
	dc.Crash()

	f := disk.OpenFile("client/dclient")
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	var ends []int
	for off := 0; off+9 <= len(buf); off = ends[len(ends)-1] {
		end := off + 9 + int(binary.LittleEndian.Uint32(buf[off+1:]))
		fmt.Fprintf(&got, "%x\n", buf[off:end])
		ends = append(ends, end)
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
	if _, err := disk2.OpenFile("client/dclient").WriteAt(buf[:ends[len(ends)-2]], 0); err != nil {
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

func TestDurableClientTornJournalTail(t *testing.T) {
	e, disk := newDurableClientEnv(t)
	defer e.cleanup()
	dc := mustDurable(t, e, disk)
	ds, _ := dc.Session("msp1")
	if _, err := ds.Call("inc", nil); err != nil {
		t.Fatal(err)
	}
	dc.Crash()
	// Corrupt the journal tail.
	f := disk.OpenFile("client/dclient")
	_, _ = f.WriteAt([]byte{9, 9, 9}, f.Size())
	dc2 := mustDurable(t, e, disk)
	defer dc2.Close()
	if len(dc2.Sessions()) != 1 {
		t.Fatalf("valid journal prefix lost: %v", dc2.Sessions())
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
	inFlight := func(call func() error, stop func()) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		<-nobody.Recv() // the request is out
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
	inFlight(func() error { _, err := cs.Call("inc", nil); return err }, c.Close)
	if cs.nextSeq != 1 {
		t.Fatalf("sequence number moved to %d on a stopped call", cs.nextSeq)
	}

	dc := mustDurable(t, e, disk)
	ds, err := dc.Session("nobody")
	if err != nil {
		t.Fatal(err)
	}
	inFlight(func() error { _, err := ds.Call("inc", nil); return err }, dc.Crash)
	dc2 := mustDurable(t, e, disk)
	defer dc2.Close()
	if _, _, ok := dc2.Sessions()[ds.ID()].Pending(); !ok {
		t.Fatal("the stopped call's intent is not pending after the crash")
	}
}
