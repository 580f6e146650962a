package core

import (
	"bytes"
	"strings"
	"testing"

	"mspr/internal/logrec"
	"mspr/internal/wal"
)

// crashedLog runs 300 sessions of two 100-byte requests each on a lone MSP
// with the sweep off, takes an MSP checkpoint, crashes the MSP and returns
// the log it left: its head, its durable end and its one segment. No
// session has checkpointed, so the head stays at the first session's
// start, blocks below the anchor's checkpoint record.
func crashedLog(t *testing.T, e *testEnv) (head, durable wal.LSN, seg wal.SegmentInfo) {
	t.Helper()
	srv := e.start("m", counterDef(), noSweep)
	c := e.endClient()
	cs := make([]*ClientSession, 300)
	for i := range cs {
		cs[i] = c.Session("m")
	}
	arg := bytes.Repeat([]byte{0xCD}, 100)
	for k := 0; k < 2; k++ {
		for _, s := range cs {
			mustCall(t, s, "inc", arg)
		}
	}
	if err := srv.writeMSPCheckpoint(); err != nil {
		t.Fatal(err)
	}
	lg := srv.Log()
	head, durable, segs := lg.Head(), lg.Durable(), lg.Segments()
	if len(segs) != 1 {
		t.Fatalf("the log has %d segments, want 1", len(segs))
	}
	srv.Crash()
	return head, durable, segs[0]
}

// TestRestartChargesOneLogPass: a restart reads the anchor and then the
// live log once, block by block, in the analysis scan — the scan finds the
// anchor's MSP checkpoint itself — and writes twice: one flush covering the
// recovery record and the post-recovery checkpoint, and one anchor write
// carrying the new epoch.
func TestRestartChargesOneLogPass(t *testing.T) {
	const block = 64 << 10 // the log's read-ahead block
	e := newTestEnv(t)
	defer e.cleanup()
	head, durable, seg := crashedLog(t, e)
	// File offset of an LSN in the segment: one header sector precedes its data.
	off := func(lsn wal.LSN) int64 { return int64(lsn-seg.Base) + 512 }
	blocks := (off(durable)-1)/block - off(head)/block + 1
	if blocks < 2 {
		t.Fatalf("the live log [%d, %d) covers %d block: too small to tell one pass from two", head, durable, blocks)
	}

	before := e.disks["m"].Stats()
	e.start("m", e.defs["m"])
	after := e.disks["m"].Stats()
	if writes := after.Writes - before.Writes; writes != 2 {
		t.Errorf("restart charged %d disk writes, want 2: one log flush and one anchor write", writes)
	}
	if reads, want := after.Reads-before.Reads, 1+blocks; reads != want {
		t.Errorf("restart charged %d disk reads, want %d: the anchor and the %d blocks of [%d, %d)",
			reads, want, blocks, head, durable)
	}
}

// TestStartRejectsAnchorOffMSPCheckpoint: an anchor whose checkpoint LSN
// holds another record, or no record at all, fails the restart instead of
// recovering from a log the anchor does not describe.
func TestStartRejectsAnchorOffMSPCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(a wal.Anchor, session wal.LSN) wal.LSN
	}{
		{"session record", func(_ wal.Anchor, session wal.LSN) wal.LSN { return session }},
		{"mid-record", func(a wal.Anchor, _ wal.LSN) wal.LSN { return a.CheckpointLSN + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEnv(t)
			defer e.cleanup()
			crashedLog(t, e)
			lg, err := wal.Open(e.disks["m"], "m.log", wal.Config{})
			if err != nil {
				t.Fatal(err)
			}
			a, ok, err := lg.ReadAnchor()
			if err != nil || !ok {
				t.Fatalf("ReadAnchor: %v, %v", ok, err)
			}
			var session wal.LSN
			if _, err := lg.Scan(a.Head, func(lsn wal.LSN, typ byte, _ []byte) error {
				if session == 0 && logrec.Type(typ) == logrec.TReqReceive {
					session = lsn
				}
				return nil
			}); err != nil || session == 0 {
				t.Fatalf("no ReqReceive record in the live log (err %v)", err)
			}
			a.CheckpointLSN = tc.at(a, session)
			if err := lg.WriteAnchor(a); err != nil {
				t.Fatal(err)
			}
			lg.Close()
			if _, err := Start(e.cfgFor("m")); err == nil || !strings.Contains(err.Error(), "not an MSP checkpoint") {
				t.Fatalf("Start with the anchor at LSN %d: err = %v, want one naming no MSP checkpoint", a.CheckpointLSN, err)
			}
		})
	}
}
