package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mspr/internal/metrics"
	"mspr/internal/simdisk"
)

// The streamed Scan's tests. None compares a duration: each one checks a
// record sequence, a counter or a goroutine's absence, at TimeScale 0 and
// at the benchmark's 0.02 (where a block read takes the producer 0.46 ms
// and the hand-off really interleaves), on one, two and eight scheduler
// threads — the stream's hand-off is the kind of code that is only wrong
// at one width. TestScanBooksTheNextRead alone runs at TimeScale 1, where
// a block's read is long enough to look at the counter in the middle of it.

// atEveryWidth runs body at both time scales on 1, 2 and 8 threads.
func atEveryWidth(t *testing.T, body func(t *testing.T, scale float64)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		for _, scale := range []float64{0, 0.02} {
			runtime.GOMAXPROCS(procs)
			t.Run(fmt.Sprintf("procs=%d/scale=%v", procs, scale), func(t *testing.T) { body(t, scale) })
		}
	}
}

type scanned struct {
	lsn     LSN
	typ     byte
	payload []byte
}

// scanLogSegment is the test logs' segment size: two and a half read-ahead
// blocks, so sealed segments end mid-block.
const scanLogSegment = 160 << 10

// buildScanLog writes a log of at least three segments whose flush blocks
// end at irregular points (mid-sector, where the next block continues),
// whose frames cross read-ahead block boundaries, and with one frame whose
// header straddles the first boundary — the case that sends a scan back a
// block. It returns the records in log order.
func buildScanLog(t *testing.T, scale float64) (*simdisk.Disk, *Log, []scanned) {
	t.Helper()
	disk := simdisk.NewDisk(simdisk.DefaultModel(scale))
	l, err := Open(disk, "log", Config{SegmentSize: scanLogSegment})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	var recs []scanned
	add := func(n int) {
		p := make([]byte, n)
		rng.Read(p)
		typ := byte(1 + rng.Intn(250))
		lsn, err := l.Append(typ, p)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, scanned{lsn, typ, p})
	}
	flush := func() {
		if err := l.Flush(l.LastAppended()); err != nil {
			t.Fatal(err)
		}
	}
	// In segment 1 file offsets equal LSNs. Fill to a few KB short of the
	// first block boundary, flush, then place a frame to start two bytes
	// before the boundary in the same (unflushed) buffer.
	for l.Next() < readAhead-8<<10 {
		add(100 + rng.Intn(3000))
	}
	flush()
	add(int(readAhead - 2 - int64(l.Next()) - frameOverhead))
	if l.Next() != readAhead-2 {
		t.Fatalf("next LSN %d, want %d: the straddling frame is misplaced", l.Next(), readAhead-2)
	}
	add(300)
	flush()
	for len(l.Segments()) < 4 {
		for i := rng.Intn(30); i >= 0; i-- {
			add(10 + rng.Intn(4000))
		}
		flush()
	}
	return disk, l, recs
}

// blocksIn counts the read-ahead blocks covering [from, l.Durable()),
// segment by segment: a segment's base is no sector boundary, and its
// last block may hold only a few bytes of the range.
func blocksIn(l *Log, from LSN) int64 {
	var n int64
	from, end := max(from, l.Head()), l.Durable()
	for _, s := range l.Segments() {
		lo, hi := max(from, s.Base), end
		if s.End != 0 {
			hi = min(hi, s.End)
		}
		if lo < hi {
			n += (int64(hi-1-s.Base)+headerSize)/readAhead - (int64(lo-s.Base)+headerSize)/readAhead + 1
		}
	}
	return n
}

// scribble flips a payload byte of the record at lsn, on disk.
func scribble(t *testing.T, disk *simdisk.Disk, l *Log, lsn LSN) {
	t.Helper()
	seg, ok := l.segs.at(int64(lsn))
	if !ok {
		t.Fatalf("no segment holds LSN %d", lsn)
	}
	if _, err := disk.OpenFile(seg.file.Name()).WriteAt([]byte{0xFF}, seg.fileOff(int64(lsn))+frameHeaderLen+1); err != nil {
		t.Fatal(err)
	}
	l.InvalidateCache()
}

// streamedAndReference scans [from, durable) twice — through Scan, and on
// a cursor with no stream, which reads every block synchronously as the
// scan did before it was streamed — and fails unless both report the same
// records, last LSN, tear point and error. It returns what they reported.
func streamedAndReference(t *testing.T, l *Log, from LSN) (recs []scanned, tear int64, err error) {
	t.Helper()
	collect := func(into *[]scanned) func(LSN, byte, []byte) error {
		return func(lsn LSN, typ byte, p []byte) error {
			*into = append(*into, scanned{lsn, typ, p})
			return nil
		}
	}
	var want []scanned
	wantLast, wantTear, wantErr := (&cursor{segs: l.segs}).scan(int64(max(from, l.Head())), int64(l.Durable()), collect(&want))
	last, err := l.Scan(from, collect(&recs))
	l.mu.Lock()
	tear = l.tornFrom
	l.mu.Unlock()
	if last != wantLast || tear != wantTear || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Scan(%d) = last %d, tear %d, err %v; the synchronous walk says last %d, tear %d, err %v",
			from, last, tear, err, wantLast, wantTear, wantErr)
	}
	if len(recs) != len(want) {
		t.Fatalf("Scan(%d) yielded %d records, the synchronous walk %d", from, len(recs), len(want))
	}
	for i, r := range recs {
		if w := want[i]; r.lsn != w.lsn || r.typ != w.typ || !bytes.Equal(r.payload, w.payload) {
			t.Fatalf("Scan(%d) record %d is (%d, %d, %d bytes), the synchronous walk's (%d, %d, %d bytes)",
				from, i, r.lsn, r.typ, len(r.payload), w.lsn, w.typ, len(w.payload))
		}
	}
	return recs, tear, err
}

// TestStreamedScanMatchesSynchronousWalk: whatever the log looks like, the
// streamed Scan reports byte for byte what the synchronous walk reports.
func TestStreamedScanMatchesSynchronousWalk(t *testing.T) {
	atEveryWidth(t, func(t *testing.T, scale float64) {
		t.Run("healthy", func(t *testing.T) {
			_, l, built := buildScanLog(t, scale)
			defer l.Close()
			crossing := 0
			for _, r := range built {
				seg, _ := l.segs.at(int64(r.lsn))
				first := seg.fileOff(int64(r.lsn))
				if last := first + int64(len(r.payload)) + frameOverhead - 1; first/readAhead != last/readAhead {
					crossing++
				}
			}
			if crossing < 3 {
				t.Fatalf("%d frames cross a block boundary: the log does not exercise the case", crossing)
			}
			syncBefore := metrics.Wal.ScanBlocksSync.Load()
			recs, tear, err := streamedAndReference(t, l, 0)
			if err != nil || tear != 0 || len(recs) != len(built) {
				t.Fatalf("scan of a healthy log: %d of %d records, tear %d, err %v", len(recs), len(built), tear, err)
			}
			if synced := metrics.Wal.ScanBlocksSync.Load() - syncBefore; synced != 0 {
				t.Fatalf("%d blocks were read synchronously: the straddling frame header was not served from the two streamed blocks", synced)
			}
			for i, r := range recs {
				typ, p, err := l.ReadRecord(r.lsn)
				if b := built[i]; err != nil || r.lsn != b.lsn || typ != b.typ || r.typ != b.typ ||
					!bytes.Equal(p, b.payload) || !bytes.Equal(r.payload, b.payload) {
					t.Fatalf("record %d at LSN %d differs from what was appended at %d (ReadRecord: %v)", i, r.lsn, b.lsn, err)
				}
			}
			// From the middle of a block, of the second segment.
			mid := built[len(built)/2].lsn
			if recs, _, err := streamedAndReference(t, l, mid); err != nil || recs[0].lsn != mid {
				t.Fatalf("scan from %d starts at %d, err %v", mid, recs[0].lsn, err)
			}
		})
		t.Run("torn tail", func(t *testing.T) {
			disk, l, built := buildScanLog(t, scale)
			defer l.Close()
			torn := built[len(built)-1]
			scribble(t, disk, l, torn.lsn)
			recs, tear, err := streamedAndReference(t, l, 0)
			if err != nil || tear != int64(torn.lsn) || len(recs) != len(built)-1 {
				t.Fatalf("torn tail at %d: %d of %d records, tear %d, err %v", torn.lsn, len(recs), len(built), tear, err)
			}
		})
		t.Run("mid-log corruption", func(t *testing.T) {
			disk, l, built := buildScanLog(t, scale)
			defer l.Close()
			// Far enough from the end that the producer is stopped mid-range.
			bad := built[len(built)*3/5]
			if seg, _ := l.segs.at(int64(bad.lsn)); seg.end == 0 {
				t.Fatalf("LSN %d is in the final segment", bad.lsn)
			}
			scribble(t, disk, l, bad.lsn)
			recs, _, err := streamedAndReference(t, l, 0)
			if !errors.Is(err, ErrCorrupt) || recs[len(recs)-1].lsn >= bad.lsn {
				t.Fatalf("corruption at %d: err %v, last record %d", bad.lsn, err, recs[len(recs)-1].lsn)
			}
		})
		t.Run("sealed-segment corruption", func(t *testing.T) {
			disk, l, built := buildScanLog(t, scale)
			// The final segment goes away, so nothing valid follows the damage
			// and only the seal convicts it.
			segs := l.Segments()
			final := segs[len(segs)-1]
			var bad scanned
			for _, r := range built {
				if r.lsn < final.Base {
					bad = r
				}
			}
			scribble(t, disk, l, bad.lsn)
			l.Close()
			if err := disk.OpenFile(final.Name).Truncate(headerSize); err != nil {
				t.Fatal(err)
			}
			l, err := Open(disk, "log", Config{SegmentSize: scanLogSegment})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, _, err := streamedAndReference(t, l, 0); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "sealed") {
				t.Fatalf("damage at %d in a sealed segment with nothing after it: err %v", bad.lsn, err)
			}
		})
	})
}

// producerAlive reports whether any goroutine is inside the producer.
func producerAlive() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("readAheadOf"))
}

// TestScanStopsItsProducer: a callback error ends the scan with the range
// mostly unread; once Scan has returned no read is charged any more and
// the producer is gone, having read at most depth+1 blocks past the stop.
func TestScanStopsItsProducer(t *testing.T) {
	atEveryWidth(t, func(t *testing.T, scale float64) {
		disk, l, built := buildScanLog(t, scale)
		defer l.Close()
		stopAt := built[10].lsn // in the first block
		boom := errors.New("boom")
		before := disk.Stats().Reads
		_, err := l.Scan(0, func(lsn LSN, _ byte, _ []byte) error {
			if lsn == stopAt {
				return boom
			}
			return nil
		})
		reads := disk.Stats().Reads - before
		if err != boom {
			t.Fatalf("Scan returned %v, want the callback's error", err)
		}
		if reads < 1 || reads > 1+streamDepth+1 {
			t.Errorf("a scan stopped in its first block charged %d reads, want 1 to %d", reads, 1+streamDepth+1)
		}
		for i := 0; producerAlive(); i++ {
			if i == 1000 {
				t.Fatal("the producer is still alive a second after Scan returned")
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(3 * time.Millisecond) // six block reads' worth at scale 0.02
		if got := disk.Stats().Reads - before; got != reads {
			t.Errorf("reads went from %d to %d after Scan returned", reads, got)
		}
	})
}

// TestScanStreamsPastAPreCachedFirstBlock: a scan takes nothing from the
// shared cursor, so a block a point read left cached there, first in the
// range or in mid-range, is no help to it and no hindrance either: the
// scan reads every block once, from the stream.
func TestScanStreamsPastAPreCachedFirstBlock(t *testing.T) {
	atEveryWidth(t, func(t *testing.T, scale float64) {
		disk, l, built := buildScanLog(t, scale)
		defer l.Close()
		blocks := blocksIn(l, 0)
		for _, cached := range []scanned{built[3], built[len(built)/2]} {
			if _, _, err := l.ReadRecord(cached.lsn); err != nil {
				t.Fatal(err)
			}
			reads, hits, syncs := disk.Stats().Reads, metrics.Wal.ScanBlocksStreamed.Load(), metrics.Wal.ScanBlocksSync.Load()
			n := 0
			if _, err := l.Scan(0, func(LSN, byte, []byte) error { n++; return nil }); err != nil || n != len(built) {
				t.Fatalf("scan: %d of %d records, err %v", n, len(built), err)
			}
			reads, hits, syncs = disk.Stats().Reads-reads, metrics.Wal.ScanBlocksStreamed.Load()-hits, metrics.Wal.ScanBlocksSync.Load()-syncs
			if hits < blocks-2 {
				t.Errorf("LSN %d cached: %d of %d blocks came from the stream, want all but 2 at most", cached.lsn, hits, blocks)
			}
			if reads != blocks+syncs {
				t.Errorf("LSN %d cached: %d reads for %d blocks with %d read again, want %d", cached.lsn, reads, blocks, syncs, blocks+syncs)
			}
		}
	})
}

// TestFlushIntoScannedLastBlockIsRead: a flush that lands in the scan's
// last block after the producer fetched it is out of invalidateFrom's
// reach while the block sits in the stream. The record must be readable
// the moment Scan returns.
func TestFlushIntoScannedLastBlockIsRead(t *testing.T) {
	atEveryWidth(t, func(t *testing.T, scale float64) {
		disk := simdisk.NewDisk(simdisk.DefaultModel(scale))
		l, err := Open(disk, "log", Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		// Two blocks: the producer has both before the parser is through
		// the first.
		var first LSN
		for l.Next() < readAhead+readAhead/2 {
			lsn := appendAndFlush(t, l, bytes.Repeat([]byte{7}, 1000))
			if first == 0 {
				first = lsn
			}
		}
		if got := blocksIn(l, 0); got != 2 {
			t.Fatalf("the log covers %d blocks, want 2", got)
		}
		before := disk.Stats().Reads
		var late LSN
		_, err = l.Scan(0, func(lsn LSN, _ byte, _ []byte) error {
			if lsn != first {
				return nil
			}
			for i := 0; disk.Stats().Reads-before < 2; i++ { // the producer has the last block
				if i == 1000 {
					return errors.New("the producer never read the second block")
				}
				time.Sleep(time.Millisecond)
			}
			late = appendAndFlush(t, l, []byte("landed in the last block after the producer read it"))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if late >= 2*readAhead {
			t.Fatalf("the late record is at %d, past the scan's last block", late)
		}
		if _, p, err := l.ReadRecord(late); err != nil || !bytes.HasPrefix(p, []byte("landed")) {
			t.Fatalf("ReadRecord(%d) after the scan: %q, %v", late, p, err)
		}
	})
}

// TestScanCursorKeepsItsSegment: a scan's cursor keeps the segment it is
// in instead of looking one up per frame, and must leave it exactly at its
// end. On 4096-byte segments (the packed-rotation storm's) with at least
// three seals, a scan of the whole log and one from mid-segment report the
// records a ReadRecord walk reads. First, a frame-header probe that starts
// just before a sealed segment's end, on a cursor that is in that segment,
// must read the next segment's first bytes past it.
func TestScanCursorKeepsItsSegment(t *testing.T) {
	const segSize = 4096
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	l, err := Open(disk, "log", Config{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(49))
	var lsns []LSN
	for len(l.Segments()) < 4 {
		for i := rng.Intn(6); i >= 0; i-- {
			p := make([]byte, 10+rng.Intn(600))
			rng.Read(p)
			lsn, err := l.Append(byte(1+rng.Intn(250)), p)
			if err != nil {
				t.Fatal(err)
			}
			lsns = append(lsns, lsn)
		}
		if err := l.Flush(l.LastAppended()); err != nil {
			t.Fatal(err)
		}
	}
	var walk []scanned
	ends := make(map[LSN]bool) // where a record ends
	for _, lsn := range lsns {
		typ, p, err := l.ReadRecord(lsn)
		if err != nil {
			t.Fatalf("ReadRecord(%d): %v", lsn, err)
		}
		walk = append(walk, scanned{lsn, typ, p})
		ends[lsn+LSN(len(p)+frameOverhead)] = true
	}
	segs := l.Segments()
	if !ends[segs[0].End] {
		t.Fatalf("no record ends at the first sealed segment's end %d", segs[0].End)
	}

	// A scan's cursor (it has a stream, here an empty one), placed in each
	// sealed segment by reading its last record, then probing past its end.
	none := make(chan block)
	close(none)
	for _, s := range segs[:len(segs)-1] {
		var last LSN
		for _, r := range walk {
			if r.lsn < s.End {
				last = r.lsn
			}
		}
		c := &cursor{segs: l.segs, ahead: none}
		if _, _, _, err := c.frameAt(int64(last), int64(l.Durable())); err != nil || c.seg.base != s.Base {
			t.Fatalf("frame at %d: err %v, cursor in the segment based at %d, want %d", last, err, c.seg.base, s.Base)
		}
		probe, err := c.bytesAt(int64(s.End)-2, frameHeaderLen)
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&cursor{segs: l.segs}).bytesAt(int64(s.End)-2, frameHeaderLen)
		if err != nil || !bytes.Equal(probe, want) {
			t.Fatalf("probe at %d across the sealed end %d read %x, the shared cursor %x (%v)", int64(s.End)-2, s.End, probe, want, err)
		}
	}

	for _, from := range []int{0, len(walk) / 2} {
		if seg, _ := l.segs.at(int64(walk[from].lsn)); from != 0 && int64(walk[from].lsn) == int64(seg.base) {
			t.Fatalf("LSN %d starts its segment: not a mid-segment scan", walk[from].lsn)
		}
		var got []scanned
		want := walk[from:]
		if _, err := l.Scan(walk[from].lsn, func(lsn LSN, typ byte, p []byte) error {
			if got = append(got, scanned{lsn, typ, p}); len(got) > len(want) {
				return fmt.Errorf("record %d at LSN %d: more than the walk's %d", len(got), lsn, len(want))
			}
			return nil
		}); err != nil {
			t.Fatalf("Scan(%d): %v", walk[from].lsn, err)
		}
		if len(got) != len(want) {
			t.Fatalf("Scan(%d) yielded %d records, the ReadRecord walk %d", walk[from].lsn, len(got), len(want))
		}
		for i, r := range got {
			if w := want[i]; r.lsn != w.lsn || r.typ != w.typ || !bytes.Equal(r.payload, w.payload) {
				t.Fatalf("Scan(%d) record %d is (%d, %d, %d bytes), ReadRecord's (%d, %d, %d bytes)",
					walk[from].lsn, i, r.lsn, r.typ, len(r.payload), w.lsn, w.typ, len(w.payload))
			}
		}
	}
}

// TestScanBooksTheNextRead: the producer books block k+1 on the disk's
// head before it waits for block k, so the head does not idle between
// them. At TimeScale 1 a block's read takes 23 ms; a quarter of the way
// into the first one, before any record is delivered, the second read is
// already booked. (A producer that books each read after the last one's
// wait has returned has booked one.)
func TestScanBooksTheNextRead(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(1))
	l, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for l.Next() < 3*readAhead {
		if _, err := l.Append(1, make([]byte, 4000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(l.LastAppended()); err != nil {
		t.Fatal(err)
	}
	before := disk.Stats().Reads
	var delivered atomic.Bool
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		_, err := l.Scan(0, func(LSN, byte, []byte) error { delivered.Store(true); return boom })
		done <- err
	}()
	for disk.Stats().Reads == before {
		time.Sleep(50 * time.Microsecond)
	}
	time.Sleep(simdisk.DefaultModel(1).ReadTime(readAhead/sectorSize) / 4)
	reads, early := disk.Stats().Reads-before, delivered.Load()
	if err := <-done; err != boom {
		t.Fatalf("Scan returned %v, want the callback's error", err)
	}
	if early {
		t.Fatal("a record was delivered a quarter of the way into the first block's read")
	}
	if reads != 2 {
		t.Errorf("%d reads booked during the first block's read, want 2: that block's and the next", reads)
	}
}
