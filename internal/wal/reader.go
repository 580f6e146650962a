package wal

import (
	"fmt"
	"sync"

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

// reader serves durable records: it fetches and parses frames through
// one cached read-ahead block, which is what an ascending scan or replay
// needs. It used to keep the last 8 blocks for recoveries that interleave
// reads from several log regions; since crash replay stopped reading
// (it keeps the analysis scan's records) only live orphan recovery does
// that, and measured for PR 21 (EXPERIMENTS.md, "The read cache") the
// extra blocks no longer pay for themselves: with one block recover_4k
// does not move and mspr-bench e6 at the 4 MB threshold stays inside the
// 8-block runs' quartile spread (median 26.5 against 27.6 req/model-s,
// ahead in 5 of 11 pairs), although it issues 271 reads for 191 there
// and the 16-actor crash storm 8 934 for 5 530.
type reader struct {
	segs *segStore

	mu sync.Mutex //mspr:lock-level 60
	// block is the cached block at key; nil when nothing is cached.
	block []byte   //mspr:guarded-by mu
	key   blockKey //mspr:guarded-by mu
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
	typ, payload, _, err = l.rd.frameAt(int64(lsn), int64(durable))
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
func (r *reader) frameAt(off, end int64) (typ byte, payload []byte, size int, err error) {
	if off >= end {
		return 0, nil, 0, nil
	}
	// One probe read covers both the padding check and the length field;
	// clamped at the durable end, where a partial header can only be
	// padding or a torn tail.
	hdr, err := r.bytesAt(off, int(min(frameHeaderLen, end-off)))
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
	frame, err := r.bytesAt(off, int(n))
	if err != nil {
		return 0, nil, 0, err
	}
	return parseFrame(frame)
}

// bytesAt returns n bytes starting at logical offset off, reading
// through the cached read-ahead block. A range crossing a sealed
// segment's end continues seamlessly in the next segment (records never
// span segments, but probe reads may).
func (r *reader) bytesAt(off int64, n int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []byte
	for n > 0 {
		seg, ok := r.segs.at(off)
		if !ok {
			return nil, fmt.Errorf("wal: LSN %d is below the first live segment of %q", off, r.segs.name)
		}
		fileOff := seg.fileOff(off)
		blockOff := fileOff / readAhead * readAhead
		if key := (blockKey{seg.index, blockOff}); r.block == nil || r.key != key {
			block, err := r.segs.readBlock(seg, blockOff, readAhead)
			if err != nil {
				return nil, err
			}
			r.block, r.key = block, key
		}
		block := r.block
		i := int(fileOff - blockOff)
		take := len(block) - i
		if take > n {
			take = n
		}
		if out == nil && take == n {
			// The whole range lies inside the cached block: return a
			// subslice without copying. A block is immutable once loaded
			// (replacing it only drops the reference), so the subslice
			// stays valid; callers must treat it as read-only. This is the
			// analysis scan's hot path — one allocation per 64 KB block
			// instead of three per record.
			return block[i : i+take : i+take], nil
		}
		out = append(out, block[i:i+take]...)
		off += int64(take)
		n -= take
	}
	return out, nil
}

// invalidateFrom drops the cached block if it belongs to segment seg and
// reaches past file offset off: a flush just wrote there, so it holds
// stale zeros.
func (r *reader) invalidateFrom(seg uint64, off int64) {
	r.mu.Lock()
	if r.key.seg == seg && r.key.off+readAhead > off {
		r.block = nil
	}
	r.mu.Unlock()
}

func (r *reader) invalidate() {
	r.mu.Lock()
	r.block = nil
	r.mu.Unlock()
}

// InvalidateCache drops the cached read-ahead block. Tests use it to force
// re-reads; recovery calls it after reopening a log.
func (l *Log) InvalidateCache() { l.rd.invalidate() }

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
	if h := l.Head(); from < h {
		from = h
	}
	last, torn, err := l.rd.scan(int64(from), int64(l.Durable()), fn)
	l.mu.Lock()
	l.tornFrom = torn
	l.mu.Unlock()
	return last, err
}

// scan is Scan over [off, end); torn is where it met a torn tail, or 0.
func (r *reader) scan(off, end int64, fn func(lsn LSN, typ byte, payload []byte) error) (last LSN, torn int64, err error) {
	for off < end {
		typ, payload, size, err := r.frameAt(off, end)
		if unparsable(err) {
			valid, perr := r.probeValidAfter(off, end)
			if perr != nil {
				return last, 0, perr
			}
			if valid {
				metrics.Recovery.MidLogCorruptions.Inc()
				return last, 0, fmt.Errorf("wal: unparsable record at LSN %d with valid records after it: %w", off, ErrCorrupt)
			}
			if seg, ok := r.segs.at(off); !ok || seg.end != 0 {
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
		if typ == 0 {
			off = alignUp(off + 1) // padding: skip to the next sector boundary
			continue
		}
		if fn != nil {
			if err := fn(LSN(off), typ, payload); err != nil {
				return last, 0, err
			}
		}
		last = LSN(off)
		off += int64(size)
	}
	return last, 0, nil
}

// probeValidAfter reports whether any fully valid record starts at a
// sector boundary after off. Flush blocks always start at sector
// boundaries, so a later block's first record is found here; garbage
// inside the damaged block itself fails the CRC and is skipped. The
// probe spans segment boundaries (bytesAt follows the chain), so a
// valid record in a later segment convicts damage in an earlier one.
func (r *reader) probeValidAfter(off, end int64) (bool, error) {
	for p := alignUp(off + 1); p < end; p += sectorSize {
		typ, _, _, err := r.frameAt(p, end)
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
// pulled back to the tear's sector; without this, Open's frontier
// (placed past the garbage by file size) would strand every later
// append behind the unparsable region, invisible to all future scans.
// Recovery must call it after its analysis scan and before appending.
// The tear always lies in the final segment (Scan rejects sealed-segment
// damage as ErrCorrupt), so the repair is a tail truncation of that
// segment's file.
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) RepairTail() bool {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
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
	aligned := LSN(alignUp(off))
	l.bufStart, l.nextLSN = aligned, aligned
	if l.durable > aligned {
		l.durable = aligned
	}
	l.mu.Unlock()
	l.segs.truncateTail(seg, off) // the [off, aligned) gap reads as zeros: padding
	l.rd.invalidate()
	metrics.Recovery.CorruptTailTruncations.Inc()
	return true
}
