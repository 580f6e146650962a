package wal

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/simdisk"
)

func faultyLog(t *testing.T, seed int64) (*simdisk.Disk, *failpoint.Registry, *Log) {
	t.Helper()
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	fp := failpoint.New(seed)
	disk.SetFailpoints(fp)
	l, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return disk, fp, l
}

func appendAndFlush(t *testing.T, l *Log, payloads ...[]byte) (last LSN) {
	t.Helper()
	for _, p := range payloads {
		lsn, err := l.Append(1, p)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		last = lsn
	}
	if err := l.Flush(last); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return last
}

// A torn flush block must not strand records appended after recovery:
// Scan finds the tear, RepairTail truncates it, and new appends land
// where future scans can see them. The block starts with the sector the
// acknowledged records share, so the tear is placed past that prefix,
// three bytes into the new record.
func TestTornTailRepairAndReappend(t *testing.T) {
	disk, fp, l := faultyLog(t, 11)
	goodLast := appendAndFlush(t, l, []byte("alpha"), []byte("beta"))

	prefix := int64(l.Next()) - headerSize // the first sector holds only the two
	fp.Enable(simdisk.FPWriteTorn+":log", failpoint.Arg(prefix+3))
	if _, err := l.Append(1, []byte("doomed")); err != nil {
		t.Fatalf("append: %v", err)
	}
	err := l.Flush(l.LastAppended())
	if !failpoint.IsInjected(err) {
		t.Fatalf("flush err = %v, want injected", err)
	}
	l.Close()

	before := metrics.Recovery.CorruptTailTruncations.Load()
	l2, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var seen [][]byte
	last, err := l2.Scan(0, func(_ LSN, _ byte, p []byte) error {
		seen = append(seen, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("scan over torn tail: %v", err)
	}
	if last != goodLast || len(seen) != 2 {
		t.Fatalf("scan saw %d records, last=%d; want 2 records, last=%d", len(seen), last, goodLast)
	}
	if !l2.RepairTail() {
		t.Fatal("RepairTail found nothing to repair")
	}
	if metrics.Recovery.CorruptTailTruncations.Load() != before+1 {
		t.Fatal("CorruptTailTruncations did not advance")
	}
	// Without the repair this append would be invisible to future scans.
	appendAndFlush(t, l2, []byte("gamma"))
	l2.InvalidateCache()
	seen = nil
	if _, err := l2.Scan(0, func(_ LSN, _ byte, p []byte) error {
		seen = append(seen, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("rescan: %v", err)
	}
	if len(seen) != 3 || !bytes.Equal(seen[2], []byte("gamma")) {
		t.Fatalf("rescan saw %q, want alpha/beta/gamma", seen)
	}
}

// A tear inside the rewritten prefix persists only bytes identical to
// what the sector already held: no acknowledged record is lost, nothing
// is torn, and the log goes on from the end of the sector.
func TestTearInsideRewrittenPrefixLosesNothing(t *testing.T) {
	disk, fp, l := faultyLog(t, 15)
	appendAndFlush(t, l, []byte("alpha"))
	goodLast := appendAndFlush(t, l, []byte("beta"))

	fp.Enable(simdisk.FPWriteTorn+":log", failpoint.Arg(3))
	if _, err := l.Append(1, []byte("doomed")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Flush(l.LastAppended()); !failpoint.IsInjected(err) {
		t.Fatalf("flush err = %v, want injected", err)
	}
	l.Close()

	l2, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var seen []string
	last, err := l2.Scan(0, func(_ LSN, _ byte, p []byte) error {
		seen = append(seen, string(p))
		return nil
	})
	if err != nil || last != goodLast || len(seen) != 2 || seen[0] != "alpha" || seen[1] != "beta" {
		t.Fatalf("scan after a tear in the prefix: %q, last %d, err %v; want alpha/beta, last %d", seen, last, err, goodLast)
	}
	if l2.RepairTail() {
		t.Fatal("RepairTail repaired a tear that left only acknowledged bytes")
	}
	gamma := appendAndFlush(t, l2, []byte("gamma"))
	if gamma != headerSize+sectorSize {
		t.Fatalf("the first record after reopen is at %d, want the next sector %d", gamma, headerSize+sectorSize)
	}
	if got := len(scanPayloads(t, l2, 0)); got != 3 {
		t.Fatalf("rescan saw %d records, want 3", got)
	}
}

// RepairTail with no tear recorded is a no-op.
func TestRepairTailNoop(t *testing.T) {
	_, _, l := faultyLog(t, 12)
	appendAndFlush(t, l, []byte("x"))
	if _, err := l.Scan(0, nil); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if l.RepairTail() {
		t.Fatal("RepairTail repaired a healthy log")
	}
}

// Damage inside acknowledged data — with valid records after it — is a
// hard error, never a silent truncation.
func TestMidLogCorruptionIsHardError(t *testing.T) {
	disk, _, l := faultyLog(t, 13)
	first := appendAndFlush(t, l, []byte("first block"))
	appendAndFlush(t, l, []byte("second block"))

	// Scribble one byte of the first (acknowledged) record's payload. The
	// first segment's base is headerSize, so its file offsets equal LSNs.
	disk.OpenFile("log.000001").WriteAt([]byte{0xFF}, int64(first)+6)
	l.InvalidateCache()

	before := metrics.Recovery.MidLogCorruptions.Load()
	_, err := l.Scan(0, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan err = %v, want ErrCorrupt", err)
	}
	if metrics.Recovery.MidLogCorruptions.Load() != before+1 {
		t.Fatal("MidLogCorruptions did not advance")
	}
	if l.RepairTail() {
		t.Fatal("RepairTail must refuse mid-log corruption")
	}
}

// Damage to an acknowledged record whose successor starts mid-sector —
// the packed log's usual case, two flushes sharing a sector — is still
// convicted by that successor: the probe resyncs at every byte, not only
// at sector boundaries, so the damage is not misread as a torn tail.
func TestMidLogCorruptionBeforeMidSectorRecord(t *testing.T) {
	disk, _, l := faultyLog(t, 16)
	first := appendAndFlush(t, l, []byte("first flush"))
	second := appendAndFlush(t, l, []byte("second flush, same sector"))
	if second%sectorSize == 0 {
		t.Fatalf("the second record starts a sector (%d): the test needs it mid-sector", second)
	}
	disk.OpenFile("log.000001").WriteAt([]byte{0xFF}, int64(first)+6)
	l.InvalidateCache()

	if _, err := l.Scan(0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan err = %v, want ErrCorrupt", err)
	}
	if l.RepairTail() {
		t.Fatal("RepairTail must refuse mid-log corruption")
	}
}

// A torn anchor write falls back to the previous anchor slot.
func TestAnchorTornWriteFallsBack(t *testing.T) {
	disk, fp, l := faultyLog(t, 14)
	good := Anchor{Epoch: 3, CheckpointLSN: 4096, Head: 1024}
	if err := l.WriteAnchor(good); err != nil {
		t.Fatalf("write anchor: %v", err)
	}

	fp.Enable(FPAnchorCrash)
	err := l.WriteAnchor(Anchor{Epoch: 4, CheckpointLSN: 8192, Head: 2048})
	if !failpoint.IsInjected(err) {
		t.Fatalf("anchor write err = %v, want injected", err)
	}

	before := metrics.Recovery.AnchorFallbacks.Load()
	l2, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	a, ok, err := l2.ReadAnchor()
	if err != nil || !ok {
		t.Fatalf("read anchor: ok=%v err=%v", ok, err)
	}
	if a != good {
		t.Fatalf("anchor = %+v, want fallback to %+v", a, good)
	}
	if metrics.Recovery.AnchorFallbacks.Load() != before+1 {
		t.Fatal("AnchorFallbacks did not advance")
	}

	// The next successful write repairs the torn slot and wins again.
	repaired := Anchor{Epoch: 5, CheckpointLSN: 9000, Head: 2048}
	if err := l2.WriteAnchor(repaired); err != nil {
		t.Fatalf("repairing anchor write: %v", err)
	}
	if a, ok, _ := l2.ReadAnchor(); !ok || a != repaired {
		t.Fatalf("anchor after repair = %+v ok=%v, want %+v", a, ok, repaired)
	}
}

// Anchor updates alternate slots, so one write never destroys the only
// valid anchor.
func TestAnchorAlternatesSlots(t *testing.T) {
	disk, _, l := faultyLog(t, 15)
	for e := uint32(1); e <= 4; e++ {
		if err := l.WriteAnchor(Anchor{Epoch: e, CheckpointLSN: LSN(e) * 512}); err != nil {
			t.Fatalf("write anchor %d: %v", e, err)
		}
	}
	f := disk.OpenFile("log.anchor")
	if f.Size() <= anchorSlotStride {
		t.Fatalf("anchor file size = %d, want both slots written (stride %d)", f.Size(), anchorSlotStride)
	}
	a, ok, err := l.ReadAnchor()
	if err != nil || !ok || a.Epoch != 4 {
		t.Fatalf("anchor = %+v ok=%v err=%v, want epoch 4", a, ok, err)
	}
}

// TestAnchorRewriteWaitsForWrite: the anchor store holds no lock across a
// slot write's modelled wait, yet two slot writes never interleave. A
// rotation's rewrite issued while a checkpoint's anchor write waits on the
// disk (TimeScale 1: about 8 ms) lands after it, and both slots end
// checksummed, one sequence number apart, holding the written anchor.
func TestAnchorRewriteWaitsForWrite(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(1))
	l, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.WriteAnchor(Anchor{Epoch: 1, CheckpointLSN: 512, Head: 512}); err != nil {
		t.Fatal(err)
	}
	second := Anchor{Epoch: 2, CheckpointLSN: 1024, Head: 512}
	before := disk.Stats().Writes
	wrote, rewrote := make(chan error, 1), make(chan error, 1)
	go func() { wrote <- l.WriteAnchor(second) }()
	for disk.Stats().Writes == before { // charged: the slot is written and its wait has begun
		time.Sleep(50 * time.Microsecond)
	}
	if !l.anchor.mu.TryLock() {
		t.Fatal("anchorStore.mu is held across the slot write's modelled wait")
	}
	l.anchor.mu.Unlock()
	go func() { rewrote <- l.anchor.rewrite() }()
	select {
	case err := <-rewrote:
		t.Fatalf("the rewrite returned (%v) while the write was still in flight", err)
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-rewrote; err != nil {
		t.Fatal(err)
	}
	img, err := readSlots(disk.OpenFile("log.anchor"))
	if err != nil {
		t.Fatal(err)
	}
	var seqs [2]uint64
	for slot := range seqs {
		a, _, seq, ok := parseAnchorSlot(img[slot*anchorSlotStride:][:anchorSlotStride])
		if !ok || a != second {
			t.Fatalf("slot %d: %+v valid=%v, want %+v checksummed", slot, a, ok, second)
		}
		seqs[slot] = seq
	}
	if d := int64(seqs[0]) - int64(seqs[1]); d != 1 && d != -1 {
		t.Errorf("slot sequence numbers %v, want consecutive: the write's and the rewrite's", seqs)
	}
}

// A flush crash loses the buffered records, acknowledges nothing, and
// wedges the log until the process restarts.
func TestFlushCrashWedgesLog(t *testing.T) {
	disk, fp, l := faultyLog(t, 16)
	kept := appendAndFlush(t, l, []byte("kept"))

	durableBefore := l.Durable()
	fp.Enable(FPFlushCrash)
	lsn, err := l.Append(1, []byte("lost"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Flush(lsn); !failpoint.IsInjected(err) {
		t.Fatalf("flush err = %v, want injected", err)
	}
	if l.Durable() != durableBefore {
		t.Fatalf("durable frontier moved across a crashed flush: %d -> %d (kept record at %d)",
			durableBefore, l.Durable(), kept)
	}
	// The crash is sticky even though the failpoint was one-shot.
	if err := l.Flush(lsn); !failpoint.IsInjected(err) {
		t.Fatalf("second flush err = %v, want sticky injected error", err)
	}
	l.Close()

	l2, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var payloads [][]byte
	if _, err := l2.Scan(0, func(_ LSN, _ byte, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(payloads) != 1 || !bytes.Equal(payloads[0], []byte("kept")) {
		t.Fatalf("recovered %q, want only the flushed record", payloads)
	}
}

// A transient write error is retried inside the flush and succeeds.
func TestTransientFlushErrorRetries(t *testing.T) {
	_, fp, l := faultyLog(t, 17)
	before := metrics.Recovery.TransientWriteRetries.Load()
	fp.Enable(simdisk.FPWriteError + ":log")
	appendAndFlush(t, l, []byte("resilient"))
	if metrics.Recovery.TransientWriteRetries.Load() != before+1 {
		t.Fatal("TransientWriteRetries did not advance")
	}
	if typ, p, err := l.ReadRecord(headerSize); err != nil || typ != 1 || !bytes.Equal(p, []byte("resilient")) {
		t.Fatalf("record after retried flush: typ=%d p=%q err=%v", typ, p, err)
	}
}

// A transient error on any of the log's device writes — a flush block, a
// rotation's segment header, an anchor slot — is retried, and the flush,
// the rotation and the anchor write all succeed.
func TestTransientWriteErrorRetriedOnEveryWrite(t *testing.T) {
	for _, tc := range []struct{ write, file string }{
		{"block", "log.000001"},
		{"segment-header", "log.000002"},
		{"anchor-slot", "log.anchor"},
	} {
		t.Run(tc.write, func(t *testing.T) {
			const segSize = 2048
			_, fp, l := tinySegLog(t, 19, segSize)
			point := simdisk.FPWriteError + ":" + tc.file
			fp.Enable(point)
			before := metrics.Recovery.TransientWriteRetries.Load()
			appendFlushSectors(t, l, 0, 1)
			appendFlushSectors(t, l, 1, segSize/sectorSize) // fills the segment: rotates
			if n := len(l.Segments()); n != 2 {
				t.Fatalf("%d segments after filling the first, want 2", n)
			}
			if err := l.WriteAnchor(Anchor{Epoch: 1, CheckpointLSN: headerSize, Head: headerSize}); err != nil {
				t.Fatalf("WriteAnchor: %v", err)
			}
			if hits := fp.Hits(point); hits != 1 {
				t.Fatalf("%s fired %d times, want once", point, hits)
			}
			if d := metrics.Recovery.TransientWriteRetries.Load() - before; d != 1 {
				t.Fatalf("TransientWriteRetries delta = %d, want 1", d)
			}
		})
	}
}

// Three consecutive transient failures exhaust the retry budget.
func TestTransientFlushErrorExhaustsRetries(t *testing.T) {
	_, fp, l := faultyLog(t, 18)
	fp.Enable(simdisk.FPWriteError+":log", failpoint.Times(3))
	lsn, _ := l.Append(1, []byte("x"))
	if err := l.Flush(lsn); !errors.Is(err, simdisk.ErrTransientWrite) {
		t.Fatalf("flush err = %v, want ErrTransientWrite after retries", err)
	}
}
