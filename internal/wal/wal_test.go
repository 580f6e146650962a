package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mspr/internal/simdisk"
)

func newTestLog(t *testing.T, cfg Config) (*Log, *simdisk.Disk) {
	t.Helper()
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	l, err := Open(disk, "test.log", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, disk
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	var prev LSN
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(1, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= prev {
			t.Fatalf("LSN %d not after %d", lsn, prev)
		}
		prev = lsn
	}
}

func TestReadRecordFromBuffer(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	lsn, err := l.Append(7, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := l.ReadRecord(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != 7 || string(payload) != "hello" {
		t.Fatalf("got (%d, %q)", typ, payload)
	}
}

func TestFlushMakesDurable(t *testing.T) {
	l, disk := newTestLog(t, Config{})
	lsn, _ := l.Append(1, []byte("abc"))
	if l.Durable() > lsn {
		t.Fatal("record durable before flush")
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if l.Durable() <= lsn {
		t.Fatalf("durable frontier %d does not cover %d", l.Durable(), lsn)
	}
	st := disk.Stats()
	if st.Writes != 1 {
		t.Fatalf("expected 1 disk write, got %d", st.Writes)
	}
}

func TestFlushIsIdempotent(t *testing.T) {
	l, disk := newTestLog(t, Config{})
	lsn, _ := l.Append(1, []byte("abc"))
	for i := 0; i < 5; i++ {
		if err := l.Flush(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if got := disk.Stats().Writes; got != 1 {
		t.Fatalf("idempotent flush wrote %d times", got)
	}
}

// TestFlushContinuesPartialSector: the log is packed. The record after a
// flush continues in the sector the flush ended in, and the next flush
// rewrites that sector's acknowledged bytes unchanged ahead of it; the
// rewritten prefix and the zero pad are both charged as waste.
func TestFlushContinuesPartialSector(t *testing.T) {
	l, disk := newTestLog(t, Config{})
	lsn, _ := l.Append(1, make([]byte, 100)) // 109 bytes framed
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	st := disk.Stats()
	if st.SectorsOut != 1 {
		t.Fatalf("expected 1 sector, got %d", st.SectorsOut)
	}
	if st.WastedBytes != 512-109 {
		t.Fatalf("expected %d wasted bytes, got %d", 512-109, st.WastedBytes)
	}
	f := disk.OpenFile("test.log.000001")
	first := make([]byte, simdisk.SectorSize)
	if _, err := f.ReadAt(first, int64(lsn)); err != nil {
		t.Fatal(err)
	}
	// The next append continues in the same sector, right after the record.
	lsn2, _ := l.Append(1, []byte("x")) // 10 bytes framed
	if lsn2 != lsn+109 {
		t.Fatalf("post-flush append at %d, want %d: the log is not packed", lsn2, lsn+109)
	}
	if err := l.Flush(lsn2); err != nil {
		t.Fatal(err)
	}
	st = disk.Stats()
	if st.SectorsOut != 2 || st.WastedBytes != (512-109)+109+(512-119) {
		t.Fatalf("after the second flush: %d sectors, %d wasted bytes; want 2 and %d",
			st.SectorsOut, st.WastedBytes, (512-109)+109+(512-119))
	}
	if f.Size() != int64(lsn)+simdisk.SectorSize {
		t.Fatalf("file is %d bytes after two flushes into one sector, want %d", f.Size(), int64(lsn)+simdisk.SectorSize)
	}
	second := make([]byte, simdisk.SectorSize)
	if _, err := f.ReadAt(second, int64(lsn)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second[:109], first[:109]) {
		t.Fatal("the second flush changed the first record's acknowledged bytes")
	}
	if typ, p, _, err := parseFrame(second[109:]); err != nil || typ != 1 || string(p) != "x" {
		t.Fatalf("the second record in the shared sector: type %d, %q, %v", typ, p, err)
	}
	if l.Durable() != lsn2+10 {
		t.Fatalf("durable frontier %d, want the record's end %d", l.Durable(), lsn2+10)
	}
}

// TestPackedLogDensity: a thousand single-record flushes leave a log no
// longer than their frames plus one sector, the disk is charged a sector
// for every 512 bytes it was sent — new records plus waste — and the
// segment file's live bytes follow the durable span, not the bytes written.
func TestPackedLogDensity(t *testing.T) {
	l, disk := newTestLog(t, Config{})
	rng := rand.New(rand.NewSource(5))
	framed := 0
	for i := 0; i < 1000; i++ {
		p := make([]byte, rng.Intn(300))
		lsn, err := l.Append(1, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(lsn); err != nil {
			t.Fatal(err)
		}
		framed += len(p) + frameOverhead
	}
	if span := int(l.Durable() - l.Head()); span > framed+simdisk.SectorSize {
		t.Fatalf("1000 flushes of %d framed bytes span %d bytes of log, want at most one sector more", framed, span)
	}
	st := disk.Stats()
	if int(st.SectorsOut)*simdisk.SectorSize != framed+int(st.WastedBytes) {
		t.Fatalf("%d sectors out for %d new bytes and %d wasted", st.SectorsOut, framed, st.WastedBytes)
	}
	if live, want := liveBytes(l), alignUp(int64(l.Durable()-l.Segments()[0].Base)); live != want {
		t.Fatalf("segment file holds %d live bytes for a durable span padded to %d", live, want)
	}
}

func TestCrashLosesBufferedRecords(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	l, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := l.Append(1, []byte("durable"))
	if err := l.Flush(a); err != nil {
		t.Fatal(err)
	}
	b, _ := l.Append(1, []byte("volatile"))
	_ = b
	l.Close() // crash: buffer discarded

	l2, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	last, err := l2.Scan(0, func(lsn LSN, typ byte, payload []byte) error {
		got = append(got, string(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "durable" {
		t.Fatalf("after crash scan returned %q", got)
	}
	if last != a {
		t.Fatalf("recovered state number %d, want %d", last, a)
	}
}

func TestScanSeesAllFlushedRecords(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	var want []string
	var lastLSN LSN
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("rec-%d", i)
		want = append(want, p)
		lsn, err := l.Append(byte(1+i%5), []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
		if i%17 == 0 { // interleave flushes to create sector padding
			if err := l.Flush(lsn); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Flush(lastLSN); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := l.Scan(0, func(lsn LSN, typ byte, payload []byte) error {
		got = append(got, string(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestScanFromMiddle(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	var lsns []LSN
	for i := 0; i < 50; i++ {
		lsn, _ := l.Append(1, []byte{byte(i)})
		lsns = append(lsns, lsn)
	}
	_ = l.Flush(lsns[len(lsns)-1])
	var got []byte
	if _, err := l.Scan(lsns[20], func(lsn LSN, typ byte, payload []byte) error {
		got = append(got, payload[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 || got[0] != 20 {
		t.Fatalf("scan from middle got %d records starting %d", len(got), got[0])
	}
}

func TestReadRecordAfterReopen(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	l, _ := Open(disk, "log", Config{})
	lsn, _ := l.Append(3, []byte("persisted"))
	_ = l.Flush(lsn)
	l.Close()

	l2, _ := Open(disk, "log", Config{})
	typ, payload, err := l2.ReadRecord(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != 3 || string(payload) != "persisted" {
		t.Fatalf("got (%d, %q)", typ, payload)
	}
}

func TestAnchorRoundTrip(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	if _, ok, err := l.ReadAnchor(); err != nil || ok {
		t.Fatalf("fresh log anchor: ok=%v err=%v", ok, err)
	}
	want := Anchor{Epoch: 7, CheckpointLSN: 12345}
	if err := l.WriteAnchor(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := l.ReadAnchor()
	if err != nil || !ok {
		t.Fatalf("anchor read: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("anchor = %+v, want %+v", got, want)
	}
}

func TestAnchorSurvivesReopen(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	l, _ := Open(disk, "log", Config{})
	_ = l.WriteAnchor(Anchor{Epoch: 2, CheckpointLSN: 999})
	l.Close()
	l2, _ := Open(disk, "log", Config{})
	got, ok, _ := l2.ReadAnchor()
	if !ok || got.Epoch != 2 || got.CheckpointLSN != 999 {
		t.Fatalf("anchor after reopen: ok=%v %+v", ok, got)
	}
}

func TestBatchFlushCombinesWrites(t *testing.T) {
	for _, window := range []time.Duration{0, 8 * time.Millisecond} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			disk := simdisk.NewDisk(simdisk.DefaultModel(0))
			l, err := Open(disk, "log", Config{BatchTimeout: window})
			if err != nil {
				t.Fatal(err)
			}
			const n = 8
			errs := make(chan error, n)
			// Append everything first, then release all flush requests at
			// once: the test measures group commit's combining, not the
			// scheduler's luck in overlapping appends with flushes.
			var start sync.WaitGroup
			start.Add(1)
			for i := 0; i < n; i++ {
				lsn, err := l.Append(1, []byte{byte(i)})
				if err != nil {
					t.Fatal(err)
				}
				go func(lsn LSN) {
					start.Wait()
					errs <- l.Flush(lsn)
				}(lsn)
			}
			start.Done()
			for i := 0; i < n; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			st := disk.Stats()
			if st.Writes >= n {
				t.Fatalf("batch flushing did not combine: %d writes for %d flush requests", st.Writes, n)
			}
		})
	}
}

func TestAppendWhileFlushInFlight(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			lsn, err := l.Append(1, []byte("concurrent"))
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if i%50 == 0 {
				if err := l.Flush(lsn); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		lsn, err := l.Append(2, []byte("other"))
		if err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			if err := l.Flush(lsn); err != nil {
				t.Fatal(err)
			}
		}
	}
	<-done
	last := l.LastAppended()
	if err := l.Flush(last); err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := l.Scan(0, func(LSN, byte, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 700 {
		t.Fatalf("scan found %d records, want 700", count)
	}
}

func TestMaxBufferForcesFlush(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	l, err := Open(disk, "log", Config{})
	if err != nil {
		t.Fatal(err)
	}
	for appended := 0; appended <= maxBuffer; appended += 200 + frameOverhead {
		if _, err := l.Append(1, make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if disk.Stats().Writes == 0 {
		t.Fatal("full buffer never forced a flush")
	}
}

func TestRecordTypeZeroRejected(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	if _, err := l.Append(0, nil); err == nil {
		t.Fatal("append of type 0 should fail")
	}
}

// TestDurablePrefixProperty is the WAL's core invariant: after any random
// sequence of appends, flushes and crashes, reopening the log yields
// exactly the records appended before the last flush preceding the crash,
// in order.
func TestDurablePrefixProperty(t *testing.T) {
	prop := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		disk := simdisk.NewDisk(simdisk.DefaultModel(0))
		l, err := Open(disk, "log", Config{})
		if err != nil {
			return false
		}
		type rec struct {
			payload []byte
			lsn     LSN
		}
		var appended []rec // records appended in the current incarnation
		var durable []rec  // records known durable
		next := 0
		for _, op := range opsRaw {
			switch op % 4 {
			case 0, 1: // append
				p := []byte(fmt.Sprintf("r%d-%d", next, rng.Intn(1000)))
				next++
				lsn, err := l.Append(1, p)
				if err != nil {
					return false
				}
				appended = append(appended, rec{p, lsn})
			case 2: // flush everything appended so far
				if len(appended) > 0 {
					if err := l.Flush(appended[len(appended)-1].lsn); err != nil {
						return false
					}
					durable = append(durable, appended...)
					appended = nil
				}
			case 3: // crash and reopen
				l.Close()
				l, err = Open(disk, "log", Config{})
				if err != nil {
					return false
				}
				appended = nil
			}
		}
		// Crash and verify the durable prefix.
		l.Close()
		l, err = Open(disk, "log", Config{})
		if err != nil {
			return false
		}
		var got []rec
		if _, err := l.Scan(0, func(lsn LSN, typ byte, payload []byte) error {
			got = append(got, rec{append([]byte(nil), payload...), lsn})
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(durable) {
			return false
		}
		for i := range durable {
			if !bytes.Equal(got[i].payload, durable[i].payload) || got[i].lsn != durable[i].lsn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestScanMatchesReadRecord: every record reported by Scan must be
// readable at its reported LSN with identical content.
func TestScanMatchesReadRecord(t *testing.T) {
	prop := func(payloads [][]byte) bool {
		disk := simdisk.NewDisk(simdisk.DefaultModel(0))
		l, err := Open(disk, "log", Config{})
		if err != nil {
			return false
		}
		var last LSN
		for i, p := range payloads {
			lsn, err := l.Append(byte(1+i%250), p)
			if err != nil {
				return false
			}
			last = lsn
			if i%3 == 0 {
				if err := l.Flush(lsn); err != nil {
					return false
				}
			}
		}
		if len(payloads) > 0 {
			if err := l.Flush(last); err != nil {
				return false
			}
		}
		ok := true
		n := 0
		_, err = l.Scan(0, func(lsn LSN, typ byte, payload []byte) error {
			t2, p2, err := l.ReadRecord(lsn)
			if err != nil || t2 != typ || !bytes.Equal(p2, payload) {
				ok = false
			}
			n++
			return nil
		})
		return err == nil && ok && n == len(payloads)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReadRecordAcrossFlush: a record is readable at every instant from
// its append on — from the append buffer, from the block in flight, then
// from the disk. The read-ahead cache must never answer for the region a
// flush just wrote with a block it loaded before the write (zeros where
// the record now is): the flush drops those blocks before it stops serving
// the region from memory. Live orphan recovery reads records appended
// moments earlier, and a "record not found" there ended a session's replay
// halfway with the session put back in service.
func TestReadRecordAcrossFlush(t *testing.T) {
	l, _ := newTestLog(t, Config{})
	defer l.Close()
	var latest atomic.Int64
	first, err := l.Append(1, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(first); err != nil {
		t.Fatal(err)
	}
	latest.Store(int64(first))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: the newest record, over and over
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			lsn := LSN(latest.Load())
			if _, _, err := l.ReadRecord(lsn); err != nil {
				t.Errorf("ReadRecord(%d) of an appended record: %v", lsn, err)
				return
			}
		}
	}()
	flushes := 30000
	if testing.Short() {
		flushes = 10000
	}
	for i := 0; i < flushes && !t.Failed(); i++ {
		lsn, err := l.Append(1, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		latest.Store(int64(lsn))
		if err := l.Flush(lsn); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
