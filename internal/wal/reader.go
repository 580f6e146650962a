package wal

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mspr/internal/metrics"
)

// readAhead is the size of log reads. The paper uses 128 sectors (64 KB)
// so that one read serves many replayed records (§5.4).
const readAhead = 128 * sectorSize

// blockKey addresses one read-ahead block: a segment plus the
// block-aligned offset within its file.
type blockKey struct {
	seg uint64
	off int64
}

// streamDepth is how many blocks a scan's producer may hold: those ready
// in the stream and the one whose read it has booked on the disk's head.
// Booking block k+1 before waiting for block k keeps the head busy from
// one read to the next. On recover_4k's packed log a block's read is 23
// model ms and its parse about 10 (0.19 ms of host CPU at TimeScale
// 0.02), so the scan follows its reads: the parser waits on the stream
// for over half of it, and the producer is rarely held by a full one.
// Depths 2, 3, 4 and 6 timed the same; three leave two blocks in hand
// for a slow parse.
const streamDepth = 3

type block struct { // one read-ahead block; data nil means none
	key  blockKey
	data []byte
}

// cursor fetches and parses durable frames through the last two
// read-ahead blocks it read, which is what an ascending scan or replay
// needs: a frame straddling two blocks is served from both. It has no
// lock: the Log's cursor, for point reads, sits behind reader.mu; a
// Scan's is private to the call and takes its blocks from a stream.
type cursor struct {
	segs *segStore
	// cached is the block read last, prev the one before it.
	cached, prev block
	// ahead, on a scan's cursor, delivers the scanned range's blocks in log
	// order; head is the one received from it but not yet asked for.
	ahead <-chan block
	head  block
	// seg, on a scan's cursor, is the segment it is in (file nil before the
	// first): the scanned range is fixed and durable when the scan starts.
	seg segment
}

// reader is the Log's shared cursor and the lock that serializes its users.
type reader struct {
	mu sync.Mutex //mspr:lock-level 60
	c  cursor     //mspr:guarded-by mu
}

// ReadRecord returns the record at lsn. Records still in the volatile
// buffer are served from memory; durable records are read through the
// 64 KB read-ahead block (ascending replay reads therefore amortize to
// one disk read per 128 sectors, as in §5.4).
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) ReadRecord(lsn LSN) (typ byte, payload []byte, err error) {
	if lsn < headerSize {
		return 0, nil, ErrNotFound
	}
	typ, payload, durable, err := l.readBuffered(lsn)
	if durable == 0 {
		return typ, payload, err
	}
	l.rd.mu.Lock()
	typ, payload, _, err = l.rd.c.frameAt(int64(lsn), int64(durable))
	l.rd.mu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	if typ == 0 {
		return 0, nil, ErrNotFound
	}
	return typ, append([]byte(nil), payload...), nil
}

// frameAt fetches and parses the frame at logical offset off of the
// durable log, which ends at end. Sector padding — and anything at or
// past end — comes back as type 0 with no error; bytes that are no frame
// come back as one of parseFrame's errors (unparsable), any other error
// is a read that failed.
func (c *cursor) frameAt(off, end int64) (typ byte, payload []byte, size int, err error) {
	if off >= end {
		return 0, nil, 0, nil
	}
	// One probe read covers both the padding check and the length field;
	// clamped at the durable end, where a partial header can only be
	// padding or a torn tail.
	hdr, err := c.bytesAt(off, int(min(frameHeaderLen, end-off)))
	if err != nil || hdr[0] == 0 {
		return 0, nil, 0, err
	}
	if len(hdr) < frameHeaderLen {
		return 0, nil, 0, ErrNotFound // no room for a frame header before the durable end
	}
	n := frameSize(hdr)
	if n > end-off {
		return 0, nil, 0, ErrNotFound // the length field runs past the durable end
	}
	frame, err := c.bytesAt(off, int(n))
	if err != nil {
		return 0, nil, 0, err
	}
	return parseFrame(frame)
}

// bytesAt returns n bytes starting at logical offset off, reading
// through the cached read-ahead block. A range crossing a sealed
// segment's end continues seamlessly in the next segment (records never
// span segments, but probe reads may).
func (c *cursor) bytesAt(off int64, n int) ([]byte, error) {
	var out []byte
	for n > 0 {
		seg, ok := c.segAt(off)
		if !ok {
			return nil, fmt.Errorf("wal: LSN %d is below the first live segment of %q", off, c.segs.name)
		}
		fileOff := seg.fileOff(off)
		blockOff := fileOff / readAhead * readAhead
		data, err := c.blockAt(seg, blockKey{seg.index, blockOff})
		if err != nil {
			return nil, err
		}
		i := int(fileOff - blockOff)
		take := min(len(data)-i, n)
		if take <= 0 {
			return nil, fmt.Errorf("wal: LSN %d is past the end of segment file %q", off, seg.file.Name())
		}
		if out == nil && take == n {
			// The whole range lies inside the cached block: return a
			// subslice without copying. A block is immutable once loaded
			// (replacing it only drops the reference), so the subslice
			// stays valid; callers must treat it as read-only. This is the
			// analysis scan's hot path — one allocation per 64 KB block
			// instead of three per record.
			return data[i : i+take : i+take], nil
		}
		out = append(out, data[i:i+take]...)
		off += int64(take)
		n -= take
	}
	return out, nil
}

// segAt returns the segment covering off. A scan's cursor asks the table
// only when off lies past its segment; the Log's cursor asks every time,
// as rotation and truncation change the table between its point reads.
func (c *cursor) segAt(off int64) (segment, bool) {
	if c.seg.file != nil && c.seg.covers(off) {
		return c.seg, true
	}
	seg, ok := c.segs.at(off)
	if ok && c.ahead != nil {
		c.seg = seg
	}
	return seg, ok
}

// blockAt returns the block at key, making it the cached one: one of the
// two kept, or else loaded. A frame straddling two blocks sends the walk
// back to the first once its header has been read from both; keeping the
// first serves it without a read.
func (c *cursor) blockAt(seg segment, key blockKey) ([]byte, error) {
	switch {
	case c.cached.data != nil && c.cached.key == key:
	case c.prev.data != nil && c.prev.key == key:
		c.cached, c.prev = c.prev, c.cached
	default:
		data, err := c.load(seg, key)
		if err != nil {
			return nil, err
		}
		c.cached, c.prev = block{key, data}, c.cached
	}
	return c.cached.data, nil
}

// load returns the block at key: from the stream when it is the stream's
// next, as every first visit of a scan's ascending walk is; anything else
// (a point read has no stream) is read synchronously.
func (c *cursor) load(seg segment, key blockKey) ([]byte, error) {
	if c.ahead != nil {
		if c.head.data == nil {
			c.head = <-c.ahead // stays empty once the producer has closed the stream
		}
		if data := c.head.data; data != nil && c.head.key == key {
			c.head.data = nil
			metrics.Wal.ScanBlocksStreamed.Inc()
			return data, nil
		}
		metrics.Wal.ScanBlocksSync.Inc()
	}
	data, wait, err := c.segs.readBlock(seg, key.off, readAhead)
	if err == nil {
		wait()
	}
	return data, err
}

// invalidateFrom drops each kept block that belongs to segment seg and
// reaches past file offset off: a flush just wrote there, so it holds
// stale zeros.
func (r *reader) invalidateFrom(seg uint64, off int64) {
	r.mu.Lock()
	for _, b := range []*block{&r.c.cached, &r.c.prev} {
		if b.key.seg == seg && b.key.off+readAhead > off {
			b.data = nil
		}
	}
	r.mu.Unlock()
}

// InvalidateCache drops the kept read-ahead blocks. Tests use it to force
// re-reads; recovery calls it after reopening a log.
func (l *Log) InvalidateCache() {
	l.rd.mu.Lock()
	l.rd.c.cached.data, l.rd.c.prev.data = nil, nil
	l.rd.mu.Unlock()
}

// Scan calls fn for every valid durable record with LSN ≥ from, in log
// order across all segments, and returns the LSN of the last valid
// record seen (0 if none). It charges sequential 64 KB reads, as the
// analysis scan of §4.3 does.
//
// The payload handed to fn is read-only and stays valid after fn returns:
// it is a view of a read block that is never written again (or a private
// copy, for a frame crossing two blocks), so fn may keep it instead of
// copying — crash recovery keeps every session-owned record this way. A
// kept payload keeps its whole 64 KB block alive.
//
// An unparsable frame ends the scan one of two ways. If no valid record
// follows it AND it lies in the final segment, the damage is a torn
// tail — only records that were never acknowledged durable are lost.
// Scan records the tear point (see RepairTail) and returns normally;
// Scan itself never mutates the log, so read-only consumers (logdump)
// stay safe. If valid records *do* follow, or the unparsable frame lies
// in a sealed segment (whose contents were all acknowledged durable
// before the seal), acknowledged data was damaged in place and Scan
// returns ErrCorrupt.
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) Scan(from LSN, fn func(lsn LSN, typ byte, payload []byte) error) (last LSN, err error) {
	last, torn, err := streamedScan(l.segs, int64(max(from, l.Head())), int64(l.Durable()), fn)
	l.mu.Lock()
	l.tornFrom = torn
	l.mu.Unlock()
	return last, err
}

// streamedScan runs scan over [off, end) as a two-stage pipeline: a
// producer reads the range's blocks ahead, in log order, while scan parses
// them on a cursor of its own — not the Log's shared one, where
// invalidateFrom could not reach a block fetched before a flush and
// installed after it; to the scan no block is stale, all below end being
// durable before it starts. However scan ends, the producer is stopped and has exited, its last read
// charged (at most streamDepth+1 blocks past scan's), before this returns.
func streamedScan(segs *segStore, off, end int64, fn func(lsn LSN, typ byte, payload []byte) error) (LSN, int64, error) {
	blocks, stop := make(chan block, streamDepth-1), new(atomic.Bool)
	go readAheadOf(segs, off, end, blocks, stop)
	defer func() {
		stop.Store(true)
		for range blocks { // unblocks a producer sending; closed as it exits
		}
	}()
	return (&cursor{segs: segs, ahead: blocks}).scan(off, end, fn)
}

// readAheadOf is a scan's producer: it reads every block covering
// [off, end) in log order and sends each on out, until the range ends, stop
// is set or a read fails (the scan's synchronous read of that block reports
// it). It books each block's read on the disk before it waits for the
// last one's, so the head never idles between two; the booked read is the
// streamDepth-th block it holds. The only lock taken is the segment
// table's, never a reader's.
//
//mspr:blocking performs disk I/O
func readAheadOf(s *segStore, off, end int64, out chan<- block, stop *atomic.Bool) {
	defer close(out)
	var booked block
	var wait func()
	for {
		var next block
		var nextWait func()
		if seg, ok := s.at(off); ok && off < end && !stop.Load() {
			fileOff := seg.fileOff(off)
			next.key = blockKey{seg.index, fileOff / readAhead * readAhead}
			next.data, nextWait, _ = s.readBlock(seg, next.key.off, readAhead) // on failure data is nil: the scan reads the block itself
			off += next.key.off + readAhead - fileOff
			if seg.end != 0 && off > int64(seg.end) { // the block's end, or the sealed segment's
				off = int64(seg.end)
			}
		}
		if booked.data != nil {
			wait()
			out <- booked
		}
		if next.data == nil {
			return
		}
		booked, wait = next, nextWait
	}
}

// scan is Scan over [off, end); torn is where it met a torn tail, or 0.
func (c *cursor) scan(off, end int64, fn func(lsn LSN, typ byte, payload []byte) error) (last LSN, torn int64, err error) {
	var recs int64
	defer func() { metrics.Wal.ScanRecords.Add(recs) }()
	for off < end {
		typ, payload, size, err := c.frameAt(off, end)
		if unparsable(err) {
			valid, perr := c.probeValidAfter(off, end)
			if perr != nil {
				return last, 0, perr
			}
			if valid {
				metrics.Recovery.MidLogCorruptions.Inc()
				return last, 0, fmt.Errorf("wal: unparsable record at LSN %d with valid records after it: %w", off, ErrCorrupt)
			}
			if seg, ok := c.segs.at(off); !ok || seg.end != 0 {
				// A tear is only repairable in the final segment: a sealed
				// segment holds exclusively acknowledged-durable data, so
				// an unparsable frame there is in-place damage even when
				// the segments after it are empty.
				metrics.Recovery.MidLogCorruptions.Inc()
				return last, 0, fmt.Errorf("wal: unparsable record at LSN %d in sealed segment: %w", off, ErrCorrupt)
			}
			return last, off, nil // torn tail: only never-acknowledged records lost
		}
		if err != nil {
			return last, 0, err
		}
		if typ == 0 { // padding: skip to the next sector boundary
			seg, _ := c.segAt(off)
			off = seg.boundary(off + 1)
			continue
		}
		if fn != nil {
			if err := fn(LSN(off), typ, payload); err != nil {
				return last, 0, err
			}
		}
		recs++
		last = LSN(off)
		off += int64(size)
	}
	return last, 0, nil
}

// probeValidAfter reports whether any fully valid record starts after
// off. The log is packed — a flush block starts wherever the last one's
// records ended, mid-sector as often as not — so the probe resyncs at
// every byte and stops at the first valid frame; garbage inside the
// damaged region fails the CRC and is skipped. The probe spans segment
// boundaries (bytesAt follows the chain), so a valid record in a later
// segment convicts damage in an earlier one.
func (c *cursor) probeValidAfter(off, end int64) (bool, error) {
	for p := off + 1; p < end; p++ {
		typ, _, _, err := c.frameAt(p, end)
		if err == nil && typ != 0 {
			return true, nil
		}
		if err != nil && !unparsable(err) {
			return false, err
		}
	}
	return false, nil
}

// RepairTail truncates the torn tail found by the most recent Scan, if
// any, and reports whether it did. The append and durable frontiers are
// pulled back to the sector boundary after the tear, where the next block
// starts with nothing to carry; without this, Open's frontier
// (placed past the garbage by file size) would strand every later
// append behind the unparsable region, invisible to all future scans.
// Recovery must call it after its analysis scan and before appending.
// The tear always lies in the final segment (Scan rejects sealed-segment
// damage as ErrCorrupt), so the repair is a tail truncation of that
// segment's file.
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) RepairTail() bool {
	l.mu.Lock()
	for l.flushing {
		l.cond.Wait()
	}
	off := l.tornFrom
	l.tornFrom = 0
	seg, ok := l.segs.at(off)
	if off == 0 || len(l.buf) > 0 || l.pending != nil || !ok || seg.end != 0 {
		// Nothing torn; or appends already landed past the tear — the
		// caller broke the scan-then-repair protocol; or, defensively, the
		// tear is below the final segment, which is corruption, not a
		// repairable tail (Scan never records one). Refuse.
		l.mu.Unlock()
		return false
	}
	aligned := LSN(seg.boundary(off))
	l.bufStart, l.nextLSN, l.carry = aligned, aligned, 0
	if l.durable > aligned {
		l.durable = aligned
	}
	l.flushing = true // no flush may lead while the tail is cut
	l.mu.Unlock()
	l.segs.truncateTail(seg, off) // the [off, aligned) gap reads as zeros: padding
	l.InvalidateCache()
	l.mu.Lock()
	l.flushing = false
	l.cond.Broadcast()
	l.mu.Unlock()
	metrics.Recovery.CorruptTailTruncations.Inc()
	return true
}
