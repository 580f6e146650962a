package wal

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/simdisk"
)

// tinySegLog opens a log with a tiny segment size so a handful of
// single-sector flushes forces rotations.
func tinySegLog(t *testing.T, seed int64, segSize int64) (*simdisk.Disk, *failpoint.Registry, *Log) {
	t.Helper()
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	fp := failpoint.New(seed)
	disk.SetFailpoints(fp)
	l, err := Open(disk, "log", Config{SegmentSize: segSize})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return disk, fp, l
}

// liveBytes sums the durable log-record bytes of the log's segment files.
func liveBytes(l *Log) (n int64) {
	for _, seg := range l.Segments() {
		n += seg.Bytes - headerSize
	}
	return n
}

// appendFlushN appends n individually flushed records ("rec-0000", …) of
// 17 framed bytes; the log packs them, so about segSize/17 fill a segment
// and most rotations leave a partial sector behind.
func appendFlushN(t *testing.T, l *Log, start, n int) []LSN {
	return appendFlushPadded(t, l, start, n, 0)
}

// appendFlushSectors is appendFlushN with every record padded to a whole
// sector, so each flush lands one sector and segSize/512 flushes fill a
// segment exactly.
func appendFlushSectors(t *testing.T, l *Log, start, n int) []LSN {
	return appendFlushPadded(t, l, start, n, sectorSize-frameOverhead)
}

// recPad pads appendFlushSectors' records; scanPayloads strips it.
const recPad = "."

func appendFlushPadded(t *testing.T, l *Log, start, n, size int) []LSN {
	t.Helper()
	lsns := make([]LSN, n)
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("rec-%04d", start+i))
		p = append(p, strings.Repeat(recPad, max(0, size-len(p)))...)
		lsn, err := l.Append(1, p)
		if err != nil {
			t.Fatalf("append %d: %v", start+i, err)
		}
		if err := l.Flush(lsn); err != nil {
			t.Fatalf("flush %d: %v", start+i, err)
		}
		lsns[i] = lsn
	}
	return lsns
}

func scanPayloads(t *testing.T, l *Log, from LSN) []string {
	t.Helper()
	var got []string
	if _, err := l.Scan(from, func(_ LSN, _ byte, p []byte) error {
		got = append(got, strings.TrimRight(string(p), recPad))
		return nil
	}); err != nil {
		t.Fatalf("scan from %d: %v", from, err)
	}
	return got
}

// Rotation is invisible to the logical log: LSNs stay global byte
// offsets, reads and scans cross segment boundaries seamlessly, and a
// reopen reassembles the same record sequence from the segment chain.
func TestRotationCrossSegmentScanAndRead(t *testing.T) {
	disk, _, l := tinySegLog(t, 21, 2048)
	rotBefore := metrics.Wal.Rotations.Load()
	lsns := appendFlushN(t, l, 0, 400)

	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("400 packed flushes in 2 KB segments produced only %d segments", len(segs))
	}
	if got := metrics.Wal.Rotations.Load() - rotBefore; got != int64(len(segs)-1) {
		t.Fatalf("Rotations advanced by %d, want %d", got, len(segs)-1)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i-1].End != segs[i].Base {
			t.Fatalf("segment chain broken: %+v then %+v", segs[i-1], segs[i])
		}
	}
	if got := scanPayloads(t, l, 0); len(got) != 400 || got[0] != "rec-0000" || got[399] != "rec-0399" {
		t.Fatalf("cross-segment scan saw %d records (%v...)", len(got), got[:1])
	}
	// Random access across every boundary, through the read-ahead cache.
	l.InvalidateCache()
	for i, lsn := range lsns {
		_, p, err := l.ReadRecord(lsn)
		if err != nil || string(p) != fmt.Sprintf("rec-%04d", i) {
			t.Fatalf("ReadRecord(%d) = %q, %v", lsn, p, err)
		}
	}

	l.Close()
	l2, err := Open(disk, "log", Config{SegmentSize: 2048})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := scanPayloads(t, l2, 0); len(got) != 400 {
		t.Fatalf("post-reopen scan saw %d records, want 400", len(got))
	}
	// Appends continue in the final segment exactly where the tail ended.
	lsn, err := l2.Append(1, []byte("after-reopen"))
	if err != nil || lsn <= lsns[399] {
		t.Fatalf("append after reopen: %d, %v", lsn, err)
	}
	if err := l2.Flush(lsn); err != nil {
		t.Fatalf("flush after reopen: %v", err)
	}
	if _, p, err := l2.ReadRecord(lsn); err != nil || string(p) != "after-reopen" {
		t.Fatalf("record after reopen: %q, %v", p, err)
	}
}

// An anchor whose head points into a middle segment round-trips across a
// reopen: the segments below it are reclaimable, the ones at or after it
// are not, and the post-reopen scan starts exactly at the head.
func TestAnchorMidSegmentRoundTripAcrossReopen(t *testing.T) {
	disk, _, l := tinySegLog(t, 22, 2048)
	lsns := appendFlushN(t, l, 0, 400)
	head := lsns[200]
	want := Anchor{Epoch: 7, CheckpointLSN: head, Head: head}
	if err := l.WriteAnchor(want); err != nil {
		t.Fatalf("write anchor: %v", err)
	}
	segs := l.Segments()
	if head < segs[1].Base || head >= segs[len(segs)-1].Base {
		t.Fatalf("test defeated: head %d not in a middle segment (%+v)", head, segs)
	}
	l.Close()

	l2, err := Open(disk, "log", Config{SegmentSize: 2048})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	a, ok, err := l2.ReadAnchor()
	if err != nil || !ok || a != want {
		t.Fatalf("anchor after reopen: %+v %v %v, want %+v", a, ok, err, want)
	}
	if got := scanPayloads(t, l2, a.Head); len(got) != 200 || got[0] != "rec-0200" {
		t.Fatalf("scan from mid-segment head saw %d records, first %q", len(got), got[0])
	}
	// Truncation deletes exactly the segments wholly below the head.
	if err := l2.TruncateHead(a.Head); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	after := l2.Segments()
	if len(after) >= len(segs) {
		t.Fatalf("truncation deleted no segments (%d before, %d after)", len(segs), len(after))
	}
	if after[0].Base > a.Head || (after[0].End != 0 && after[0].End <= a.Head) {
		t.Fatalf("first live segment %+v does not cover the head %d", after[0], a.Head)
	}
	if got := scanPayloads(t, l2, 0); len(got) != 200 || got[0] != "rec-0200" {
		t.Fatalf("post-truncation scan saw %d records, first %q", len(got), got[0])
	}
}

// A block that forces a rotation while it carries a partial sector opens
// the next segment at its first new record, an LSN that is no sector
// boundary of the sealed segment: the carried bytes stay behind, and after
// a reopen Scan and ReadRecord cross the seam exactly. Open places the
// seam from file sizes only to within the sealed segment's last sector,
// and refuses a successor that starts outside it.
func TestRotationWithCarriedSectorAcrossReopen(t *testing.T) {
	disk, _, l := tinySegLog(t, 32, 1024)
	lsns := appendFlushN(t, l, 0, 100)
	segs := l.Segments()
	if len(segs) < 2 {
		t.Fatalf("100 packed flushes in 1 KB segments did not rotate: %+v", segs)
	}
	seam := segs[1].Base
	if (seam-segs[0].Base)%sectorSize == 0 {
		t.Fatalf("the seam at %d is a sector boundary of segment 1 (base %d): no partial sector was carried", seam, segs[0].Base)
	}
	if want := segs[0].Base + LSN(segs[0].Bytes-headerSize); seam <= want-sectorSize || seam > want {
		t.Fatalf("the seam at %d is not inside segment 1's last written sector, which ends at %d", seam, want)
	}
	l.Close()

	l2, err := Open(disk, "log", Config{SegmentSize: 1024})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := l2.Segments(); got[0].End != seam || got[1].Base != seam {
		t.Fatalf("reopened chain %+v, want the seam at %d", got, seam)
	}
	got := scanPayloads(t, l2, 0)
	if len(got) != 100 {
		t.Fatalf("post-reopen scan saw %d records, want 100", len(got))
	}
	for i, lsn := range lsns {
		if _, p, err := l2.ReadRecord(lsn); err != nil || string(p) != fmt.Sprintf("rec-%04d", i) || got[i] != string(p) {
			t.Fatalf("record %d at %d: ReadRecord %q, %v; Scan %q", i, lsn, p, err, got[i])
		}
	}
	l2.Close()

	// Move segment 2's base out of segment 1's last written sector, either
	// way: Open refuses both.
	end := segs[0].Base + LSN(segs[0].Bytes-headerSize)
	for _, base := range []LSN{end + 1, end - sectorSize} {
		if _, err := disk.OpenFile(segs[1].Name).WriteAt(encodeSegHeader(2, base), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(disk, "log", Config{SegmentSize: 1024}); err == nil || !strings.Contains(err.Error(), "last written sector") {
			t.Fatalf("open with segment 2 at %d (segment 1 ends in (%d, %d]): %v, want refusal", base, end-sectorSize, end, err)
		}
	}
}

// A rotation crashed before the new segment file exists leaves nothing
// behind: the log wedges, and the next incarnation re-rotates from
// scratch on its first overfull flush.
func TestRotationCrashBeforeCreate(t *testing.T) {
	disk, fp, l := tinySegLog(t, 23, 1024)
	appendFlushSectors(t, l, 0, 2) // exactly fills segment 1

	fp.Enable(FPRotateBeforeCreate)
	lsn, _ := l.Append(1, []byte("doomed"))
	if err := l.Flush(lsn); !failpoint.IsInjected(err) {
		t.Fatalf("flush err = %v, want injected rotation crash", err)
	}
	// The crash is sticky and no segment file was created.
	if err := l.Flush(lsn); !failpoint.IsInjected(err) {
		t.Fatalf("second flush err = %v, want sticky injected error", err)
	}
	if files := disk.List("log.0"); len(files) != 1 {
		t.Fatalf("crashed pre-create rotation left files: %v", files)
	}
	l.Close()

	l2, err := Open(disk, "log", Config{SegmentSize: 1024})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := scanPayloads(t, l2, 0); len(got) != 2 {
		t.Fatalf("recovered %d records, want the 2 acknowledged ones", len(got))
	}
	// Re-rotation from scratch now succeeds.
	appendFlushSectors(t, l2, 2, 2)
	if segs := l2.Segments(); len(segs) != 2 {
		t.Fatalf("re-rotation produced %d segments, want 2", len(segs))
	}
	if got := scanPayloads(t, l2, 0); len(got) != 4 || got[3] != "rec-0003" {
		t.Fatalf("scan after re-rotation: %v", got)
	}
}

// A rotation crashed after the segment create but before the anchor
// update leaves an orphan segment the directory does not know; the next
// incarnation adopts it (it is exactly index maxDir+1).
func TestRotationCrashAfterCreateAdoptsOrphan(t *testing.T) {
	disk, fp, l := tinySegLog(t, 24, 1024)
	lsns := appendFlushSectors(t, l, 0, 2)
	if err := l.WriteAnchor(Anchor{Epoch: 1, CheckpointLSN: lsns[0], Head: lsns[0]}); err != nil {
		t.Fatalf("write anchor: %v", err)
	}

	fp.Enable(FPRotateAfterCreate)
	lsn, _ := l.Append(1, []byte("doomed"))
	if err := l.Flush(lsn); !failpoint.IsInjected(err) {
		t.Fatalf("flush err = %v, want injected rotation crash", err)
	}
	if files := disk.List("log.0"); len(files) != 2 {
		t.Fatalf("orphan segment missing after post-create crash: %v", files)
	}
	l.Close()

	l2, err := Open(disk, "log", Config{SegmentSize: 1024})
	if err != nil {
		t.Fatalf("reopen must adopt the orphan: %v", err)
	}
	segs := l2.Segments()
	if files := disk.List("log.0"); len(segs) != len(files) {
		t.Fatalf("reopen lists %d segments for the %d files on disk", len(segs), len(files))
	}
	if len(segs) != 2 || segs[1].End != 0 || segs[1].Bytes != 512 {
		t.Fatalf("adopted segment table wrong: %+v", segs)
	}
	// The never-acknowledged record died with the buffer; new appends land
	// in the adopted segment.
	if got := scanPayloads(t, l2, 0); len(got) != 2 {
		t.Fatalf("recovered %d records, want 2", len(got))
	}
	appendFlushSectors(t, l2, 2, 1)
	if got := scanPayloads(t, l2, 0); len(got) != 3 || got[2] != "rec-0002" {
		t.Fatalf("scan after adoption: %v", got)
	}
}

// A rotation crashed after the anchor update leaves an empty final
// segment that the durable directory already names; reopening finds it
// consistent and continues appending into it.
func TestRotationCrashAfterAnchorOpensEmptyFinal(t *testing.T) {
	disk, fp, l := tinySegLog(t, 25, 1024)
	lsns := appendFlushSectors(t, l, 0, 2)
	if err := l.WriteAnchor(Anchor{Epoch: 1, CheckpointLSN: lsns[0], Head: lsns[0]}); err != nil {
		t.Fatalf("write anchor: %v", err)
	}

	fp.Enable(FPRotateAfterAnchor)
	lsn, _ := l.Append(1, []byte("doomed"))
	if err := l.Flush(lsn); !failpoint.IsInjected(err) {
		t.Fatalf("flush err = %v, want injected rotation crash", err)
	}
	l.Close()

	l2, err := Open(disk, "log", Config{SegmentSize: 1024})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	segs := l2.Segments()
	if len(segs) != 2 || segs[1].Bytes != 512 {
		t.Fatalf("directory-named empty final segment not opened: %+v", segs)
	}
	appendFlushSectors(t, l2, 2, 1)
	if got := scanPayloads(t, l2, 0); len(got) != 3 || got[2] != "rec-0002" {
		t.Fatalf("scan after anchored-rotation crash: %v", got)
	}
}

// A torn write of a new segment's header leaves a file whose header does
// not validate; Open deletes it (it is the file a crashed rotation was
// creating) and the next rotation recreates it.
func TestTornSegmentHeaderDeletedAtReopen(t *testing.T) {
	disk, fp, l := tinySegLog(t, 26, 1024)
	appendFlushSectors(t, l, 0, 2)

	fp.Enable(simdisk.FPWriteTorn+":log.000002", failpoint.Arg(10))
	lsn, _ := l.Append(1, []byte("doomed"))
	if err := l.Flush(lsn); !failpoint.IsInjected(err) {
		t.Fatalf("flush err = %v, want injected torn header", err)
	}
	if files := disk.List("log.0"); len(files) != 2 {
		t.Fatalf("torn segment create left files: %v", files)
	}
	l.Close()

	l2, err := Open(disk, "log", Config{SegmentSize: 1024})
	if err != nil {
		t.Fatalf("reopen with torn segment header: %v", err)
	}
	if files := disk.List("log.0"); len(files) != 1 {
		t.Fatalf("torn-header file not deleted at reopen: %v", files)
	}
	appendFlushSectors(t, l2, 2, 2) // rotates again, recreating segment 2
	if got := scanPayloads(t, l2, 0); len(got) != 4 {
		t.Fatalf("scan after header-tear recovery saw %d records, want 4", len(got))
	}
}

// Open refuses to start when a segment holding records at or after the
// anchor head is missing: recovery would silently skip acknowledged
// records.
func TestOpenRefusesMissingNeededSegment(t *testing.T) {
	disk, _, l := tinySegLog(t, 27, 1024)
	lsns := appendFlushSectors(t, l, 0, 6) // three segments
	head := lsns[0]
	if err := l.WriteAnchor(Anchor{Epoch: 1, CheckpointLSN: head, Head: head}); err != nil {
		t.Fatalf("write anchor: %v", err)
	}
	l.Close()

	disk.Remove("log.000002") // needed: it holds records at/after the head
	_, err := Open(disk, "log", Config{SegmentSize: 1024})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("open with missing needed segment: %v, want refusal", err)
	}
}

// A truncation crashed between segment deletions is finished
// idempotently by the next incarnation's re-truncation, and Open
// tolerates directory entries for segments already reclaimed.
func TestTruncateCrashFinishedIdempotently(t *testing.T) {
	disk, fp, l := tinySegLog(t, 28, 1024)
	lsns := appendFlushSectors(t, l, 0, 8) // four segments
	head := lsns[6]                        // last segment holds lsns[6..7]
	if err := l.WriteAnchor(Anchor{Epoch: 1, CheckpointLSN: head, Head: head}); err != nil {
		t.Fatalf("write anchor: %v", err)
	}
	before := len(l.Segments())
	if before < 4 {
		t.Fatalf("only %d segments", before)
	}

	// Crash after the first victim is deleted, before the second.
	fp.Enable(FPTruncateCrash, failpoint.SkipFirst(1))
	err := l.TruncateHead(head)
	if !failpoint.IsInjected(err) {
		t.Fatalf("truncate err = %v, want injected", err)
	}
	if got := len(disk.List("log.0")); got != before-1 {
		t.Fatalf("%d segment files after interrupted truncation, want %d", got, before-1)
	}
	// The interrupted truncation wedges the log like any mid-protocol crash.
	wedged, _ := l.Append(1, []byte("wedged"))
	if ferr := l.Flush(wedged); !failpoint.IsInjected(ferr) {
		t.Fatalf("flush after truncation crash = %v, want sticky injected error", ferr)
	}
	l.Close()

	reclBefore := metrics.Wal.SegmentsReclaimed.Load()
	l2, err := Open(disk, "log", Config{SegmentSize: 1024})
	if err != nil {
		t.Fatalf("reopen after interrupted truncation: %v", err)
	}
	a, ok, err := l2.ReadAnchor()
	if err != nil || !ok || a.Head != head {
		t.Fatalf("anchor after reopen: %+v %v %v", a, ok, err)
	}
	// Recovery re-truncates to the anchored head, finishing the job.
	if err := l2.TruncateHead(a.Head); err != nil {
		t.Fatalf("re-truncation: %v", err)
	}
	segs := l2.Segments()
	if len(segs) != 1 || segs[0].Base > head {
		t.Fatalf("re-truncation left %+v", segs)
	}
	if got := len(disk.List("log.0")); got != 1 {
		t.Fatalf("%d segment files after re-truncation, want 1", got)
	}
	if metrics.Wal.SegmentsReclaimed.Load() <= reclBefore {
		t.Fatal("SegmentsReclaimed did not advance across the re-truncation")
	}
	if got := scanPayloads(t, l2, a.Head); len(got) != 2 || got[0] != "rec-0006" {
		t.Fatalf("scan after re-truncation: %v", got)
	}
}

// An unparsable frame in a sealed segment is corruption even when no
// valid record follows it: everything in a sealed segment was
// acknowledged durable before the seal, so a "torn tail" there is
// in-place damage, never repairable.
func TestSealedSegmentTearIsCorrupt(t *testing.T) {
	disk, fp, l := tinySegLog(t, 29, 1024)
	lsns := appendFlushSectors(t, l, 0, 2)
	if err := l.WriteAnchor(Anchor{Epoch: 1, CheckpointLSN: lsns[0], Head: lsns[0]}); err != nil {
		t.Fatalf("write anchor: %v", err)
	}
	// Crash the rotation after the anchor update: segment 2 exists, is in
	// the directory, and is empty — so nothing follows segment 1's data.
	fp.Enable(FPRotateAfterAnchor)
	lsn, _ := l.Append(1, []byte("doomed"))
	if err := l.Flush(lsn); !failpoint.IsInjected(err) {
		t.Fatalf("flush err = %v, want injected", err)
	}
	l.Close()

	// Scribble the sealed segment's last record (CRC now fails there).
	disk.OpenFile("log.000001").WriteAt([]byte{0xFF}, int64(lsns[1])+6)

	l2, err := Open(disk, "log", Config{SegmentSize: 1024})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	before := metrics.Recovery.MidLogCorruptions.Load()
	_, err = l2.Scan(0, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan over sealed-segment tear = %v, want ErrCorrupt", err)
	}
	if metrics.Recovery.MidLogCorruptions.Load() != before+1 {
		t.Fatal("MidLogCorruptions did not advance")
	}
	if l2.RepairTail() {
		t.Fatal("RepairTail must refuse sealed-segment damage")
	}
}

// Rotation before the first checkpoint anchor exists must not write an
// anchor (it would invent a checkpoint at LSN 0); recovery accepts every
// contiguous segment of an anchorless log.
func TestAnchorlessRotationLeavesNoAnchor(t *testing.T) {
	disk, _, l := tinySegLog(t, 30, 1024)
	appendFlushSectors(t, l, 0, 6)
	if len(l.Segments()) < 3 {
		t.Fatalf("rotation never happened: %+v", l.Segments())
	}
	if size := disk.OpenFile("log.anchor").Size(); size != 0 {
		t.Fatalf("anchorless rotation wrote %d anchor bytes", size)
	}
	l.Close()

	l2, err := Open(disk, "log", Config{SegmentSize: 1024})
	if err != nil {
		t.Fatalf("reopen anchorless multi-segment log: %v", err)
	}
	if _, ok, err := l2.ReadAnchor(); ok || err != nil {
		t.Fatalf("ReadAnchor on anchorless log: ok=%v err=%v", ok, err)
	}
	if got := scanPayloads(t, l2, 0); len(got) != 6 {
		t.Fatalf("anchorless recovery scan saw %d records, want 6", len(got))
	}
}

// The segment files' live bytes track the durable live region across
// flushes and truncations; PeakLiveBytes records the high-water mark.
func TestSegmentMetricsTrackLiveBytes(t *testing.T) {
	_, _, l := tinySegLog(t, 31, 1024)
	liveBefore := liveBytes(l)
	lsns := appendFlushSectors(t, l, 0, 8)
	grown := liveBytes(l) - liveBefore
	if grown != 8*512 {
		t.Fatalf("live bytes grew by %d, want %d", grown, 8*512)
	}
	if peak := metrics.Wal.PeakLiveBytes.Load(); peak < 8*512 {
		t.Fatalf("PeakLiveBytes = %d, want >= %d", peak, 8*512)
	}
	if err := l.WriteAnchor(Anchor{Epoch: 1, CheckpointLSN: lsns[6], Head: lsns[6]}); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateHead(lsns[6]); err != nil {
		t.Fatal(err)
	}
	shrunk := liveBytes(l) - liveBefore
	if shrunk >= grown || shrunk < 0 {
		t.Fatalf("live bytes after truncation = %+d, want shrunk from %d", shrunk, grown)
	}
}
