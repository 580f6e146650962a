package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/simdisk"
	"mspr/internal/simtime"
)

// maxBuffer bounds the volatile buffer; an Append that would exceed it
// flushes the buffered records first. The paper's log blocks vary from 1
// to 128 sectors.
const maxBuffer = 128 * sectorSize

// Log is an MSP's physical log. It is safe for concurrent use by the
// MSP's worker threads.
//
// Log itself is the top layer, the group committer: it owns the volatile
// buffer and the log's frontiers, turns the buffer into sector-aligned
// block writes that continue the log's partial last sector, and rotates
// segments when a block would overfill the active one.
type Log struct {
	segs    *segStore
	anchor  *anchorStore
	rd      *reader
	segSize int64
	// window is the scaled batch window; zero turns batch flushing off.
	window time.Duration

	// flushMu serializes physical flushes, rotations and tail repair.
	flushMu sync.Mutex //mspr:lock-level 40
	// block is flush scratch: the sector-aligned write block. Between
	// flushes its first carry bytes hold the durable part of the sector
	// the log ends in, which the next flush rewrites ahead of its records.
	block []byte //mspr:guarded-by flushMu
	carry int    //mspr:guarded-by flushMu

	mu sync.Mutex //mspr:lock-level 70
	// cond broadcasts when durable advances or batch state changes.
	cond *sync.Cond
	// head: records below it have been discarded.
	head LSN //mspr:guarded-by mu
	// buf is the volatile buffer: records appended since bufStart.
	buf []byte //mspr:guarded-by mu
	// bufStart: LSN of buf[0]; the durable frontier once no flush is in
	// flight.
	bufStart LSN //mspr:guarded-by mu
	// nextLSN: the LSN the next Append will receive.
	nextLSN LSN //mspr:guarded-by mu
	// durable: exclusive durable frontier.
	durable LSN //mspr:guarded-by mu
	// pending: region being written by an in-flight flush.
	pending []byte //mspr:guarded-by mu
	// pendStart: LSN of pending[0].
	pendStart LSN //mspr:guarded-by mu
	// spare: retired append buffer, reused by the next Append.
	spare []byte //mspr:guarded-by mu
	// waiters: Flush calls waiting on the durable frontier.
	waiters int  //mspr:guarded-by mu
	closed  bool //mspr:guarded-by mu
	// flushErr records a sticky flush failure.
	flushErr error //mspr:guarded-by mu
	// tornFrom: LSN of a torn tail found by the last Scan (0 = none).
	tornFrom int64 //mspr:guarded-by mu

	// flushReq wakes the persistent group-commit flusher (flusherLoop).
	// Buffered with capacity 1: a send coalesces with an already-pending
	// wakeup, and the channel is never closed (Close signals through it
	// and the loop exits on the closed flag).
	flushReq chan struct{}
}

// Open opens (creating if necessary) the named log on disk. It
// enumerates the segment files, validates them against the anchor's
// segment directory, adopts the single orphan segment a crashed
// rotation may have left, deletes a torn segment-create leftover, and
// refuses to start when a segment at or after the anchor head is
// missing. After a crash, Open alone does not determine the durable
// frontier precisely; the recovery scan (Scan) reports the last valid
// record so the caller can learn the recovered state number.
func Open(disk *simdisk.Disk, name string, cfg Config) (*Log, error) {
	if cfg.SegmentSize <= 0 {
		cfg.SegmentSize = 4 << 20
	}
	if cfg.SegmentSize < 2*sectorSize {
		cfg.SegmentSize = 2 * sectorSize
	}
	anchor, last, dir, err := openAnchor(disk, name)
	if err != nil {
		return nil, err
	}
	segs, err := openSegments(disk, name, dir, last)
	if err != nil {
		return nil, err
	}
	anchor.segs = segs
	live := segs.infos()
	final := live[len(live)-1]
	// The mounted frontier is the sector-aligned end of the final
	// segment's file, so the first block starts a sector with nothing to
	// carry; a torn tail may overstate it (RepairTail).
	frontier := final.Base + LSN(alignUp(final.Bytes-headerSize))
	l := &Log{
		segs: segs, anchor: anchor, rd: &reader{c: cursor{segs: segs}}, segSize: cfg.SegmentSize,
		head: live[0].Base, bufStart: frontier, nextLSN: frontier, durable: frontier,
	}
	l.cond = sync.NewCond(&l.mu)
	if cfg.BatchTimeout > 0 {
		l.window = time.Duration(float64(cfg.BatchTimeout) * disk.Model().TimeScale)
		if l.window <= 0 {
			// Batching is a behavioural delay, not a modelled disk latency:
			// keep a small window even at TimeScale 0 so requests can combine.
			l.window = 100 * time.Microsecond
		}
		l.flushReq = make(chan struct{}, 1)
		go l.flusherLoop()
	}
	return l, nil
}

// wedge records err as the log's sticky failure — the crash landed
// mid-protocol and only a restart may proceed, exactly like a dead log
// device — wakes every waiter, and returns err.
func (l *Log) wedge(err error) error {
	l.mu.Lock()
	if l.flushErr == nil {
		l.flushErr = err
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// Append adds a record to the volatile buffer and returns its LSN. The
// record is not durable until a Flush covering its LSN completes.
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) Append(typ byte, payload []byte) (LSN, error) {
	if typ == 0 {
		return 0, errors.New("wal: record type 0 is reserved for padding")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if len(l.buf)+len(payload)+frameOverhead > maxBuffer && len(l.buf) > 0 {
		// Buffer full: force a flush of what we have, then append.
		upTo := l.nextLSN - 1
		l.mu.Unlock()
		if err := l.flushNow(upTo); err != nil {
			return 0, err
		}
		l.mu.Lock()
	}
	lsn := l.nextLSN
	if l.buf == nil && l.spare != nil {
		// Reuse the buffer retired by the last completed flush instead of
		// growing a fresh one from nil.
		l.buf = l.spare
		l.spare = nil
	}
	l.buf = appendFrame(l.buf, typ, payload)
	l.nextLSN += LSN(len(payload) + frameOverhead)
	l.mu.Unlock()
	return lsn, nil
}

// Durable returns the exclusive durable frontier: every record with
// LSN < Durable() survives a crash.
func (l *Log) Durable() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Next returns the LSN the next Append will be assigned.
func (l *Log) Next() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// LastAppended returns an LSN that a Flush must cover to make every
// record appended so far durable, or 0 when nothing is buffered or in
// flight — after Open and after any completed flush, when such a Flush
// would have nothing to do. Its only use is as Flush's argument.
func (l *Log) LastAppended() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextLSN == l.bufStart && len(l.pending) == 0 {
		return 0
	}
	return l.nextLSN - 1 // any LSN within the last record identifies it for flushing
}

// Head returns the log head: the smallest LSN that may still hold a
// readable record.
func (l *Log) Head() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head < headerSize {
		return headerSize
	}
	return l.head
}

// TruncateHead discards every record with LSN < before and physically
// deletes every sealed segment wholly below the new head. The caller
// must have durably recorded the new head (WriteAnchor) first, so a
// crash never leaves an anchor pointing below a discarded region; a
// crash between segment deletions (FPTruncateCrash) is repaired by the
// next incarnation's re-truncation, which deletes the remaining
// segments idempotently. The anchor's stored directory may briefly
// list deleted segments; Open tolerates missing segments wholly below
// the head, and the next anchor write persists the pruned directory.
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) TruncateHead(before LSN) error {
	l.mu.Lock()
	if before > l.durable {
		before = l.durable
	}
	if before <= l.head {
		l.mu.Unlock()
		return nil
	}
	l.head = before
	l.mu.Unlock()
	freed, err := l.segs.dropBelow(before)
	if err != nil {
		return l.wedge(err)
	}
	if freed {
		l.InvalidateCache()
	}
	return nil
}

// Flush makes every record with LSN ≤ upTo durable. With batch flushing
// enabled the request is handed to the persistent group-commit flusher so
// concurrent requests share a single write; otherwise the flush is issued
// immediately on the caller.
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) Flush(upTo LSN) error {
	l.mu.Lock()
	if upTo < l.durable {
		l.mu.Unlock()
		return nil
	}
	if l.window <= 0 {
		l.mu.Unlock()
		return l.flushNow(upTo)
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Group commit: register as a waiter, wake the flusher, and wait until
	// the durable frontier covers us (or the log dies under us). The
	// flusher is a long-lived goroutine, so a request arriving while a
	// flush is in flight is picked up as soon as that flush completes —
	// there is no re-arm window during which a waiter can oversleep.
	l.waiters++
	select {
	case l.flushReq <- struct{}{}:
	default: // a wakeup is already pending; it will cover us
	}
	metrics.Wal.GroupCommitWaits.Inc()
	for l.durable <= upTo && l.flushErr == nil && !l.closed {
		l.cond.Wait()
	}
	l.waiters--
	err := l.flushErr
	if err == nil && l.closed && l.durable <= upTo {
		err = ErrClosed
	}
	l.mu.Unlock()
	return err
}

// flusherLoop is the persistent group-commit flusher: one long-lived
// goroutine per log that serves every batched Flush. The batch window is
// adaptive (§5.5): a lone waiter is flushed immediately (an idle system
// should not pay the window as latency), while concurrent waiters hold
// the window open so their records share one sector-aligned write. Errors
// reach waiters through the sticky flushErr set inside flushNow; Close
// wakes the loop through flushReq and it exits on the closed flag.
func (l *Log) flusherLoop() {
	// loaded records that the previous flush left waiters behind (or more
	// arrived during it): the burst is still going, so the next batch
	// holds the window open even if only one waiter has registered yet.
	loaded := false
	for range l.flushReq {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		contended := loaded || l.waiters > 1
		l.mu.Unlock()
		if contended {
			metrics.Wal.GroupCommitWindows.Inc()
			simtime.Sleep(l.window)
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		upTo := l.nextLSN - 1
		served := int64(l.waiters)
		l.mu.Unlock()
		metrics.Wal.GroupCommitBatches.Inc()
		metrics.Wal.GroupCommitBatchWaiters.Add(served)
		// flushNow's error is delivered to waiters via the sticky flushErr
		// (set and broadcast inside); the loop keeps draining wakeups so
		// late waiters observe the error instead of hanging.
		_ = l.flushNow(upTo)
		l.mu.Lock()
		loaded = l.waiters > 0
		l.mu.Unlock()
	}
}

// flushNow writes the buffered records, after the partial sector the last
// flush ended in (its durable bytes rewritten identically) and padded to a
// sector boundary, and advances the durable frontier to their end; the
// next block continues there. A block that would overfill the active
// segment rotates first. Appends proceed while the write is in flight.
func (l *Log) flushNow(upTo LSN) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.flushErr != nil {
		// A previous flush failed; the log is wedged until the process
		// restarts and recovers.
		err := l.flushErr
		l.mu.Unlock()
		return err
	}
	if upTo < l.durable || len(l.buf) == 0 {
		// A racing flush already covered this request.
		l.mu.Unlock()
		return nil
	}
	if _, ok := l.segs.fp().Eval(FPFlushCrash); ok {
		// Crash between buffer append and sync: nothing reaches the disk
		// and no caller was ever told the records were durable.
		l.mu.Unlock()
		return l.wedge(fmt.Errorf("wal: flush of %q crashed before write: %w", l.segs.name, failpoint.ErrInjected))
	}
	data := l.buf
	start := l.bufStart
	end := start + LSN(len(data))
	l.pending = data
	l.pendStart = start
	l.buf = nil
	l.bufStart = end
	l.mu.Unlock()

	// Rotation: if this block would overfill the active segment (and the
	// segment already holds records — a segment always accepts its first
	// block, however large), seal it and open the next at the first new
	// record, which leaves the carried sector behind.
	seg, carry := l.segs.active(), l.carry
	held := seg.fileOff(int64(start)) - headerSize // the segment's bytes of records
	if held > 0 && held-int64(carry)+alignUp(int64(carry+len(data))) > l.segSize {
		if err := l.rotate(start); err != nil {
			return l.wedge(err)
		}
		seg, carry = l.segs.active(), 0
	}
	segOff := seg.fileOff(int64(start)) - int64(carry)
	filled := carry + len(data)
	need := int(alignUp(int64(filled)))
	// The disk copies the scratch block during the write, so only the pad
	// needs explicit zeroing; its first carry bytes are the partial sector.
	if cap(l.block) < need {
		l.block = append(make([]byte, 0, need), l.block[:carry]...)
	}
	block := l.block[:need]
	copy(block[carry:], data)
	clear(block[filled:])
	if err := writeSectors(seg.file, block, segOff, need-len(data), true); err != nil {
		return l.wedge(err)
	}
	l.carry = copy(block, block[filled-filled%sectorSize:filled]) // the next block's prefix

	// A cached read-ahead block covering the just-written region holds
	// stale zeros (read before this flush); drop it. This comes before
	// pending is cleared: until then ReadRecord serves the region from
	// memory, and from then on a read must not find a stale block — it
	// would report a record appended moments ago as not found.
	l.rd.invalidateFrom(seg.index, segOff)

	l.mu.Lock()
	l.durable = end
	l.pending = nil
	// The retired append buffer becomes the spare: no reader can reach it
	// once pending is cleared (readBuffered copies payloads under mu).
	l.spare = data[:0]
	l.cond.Broadcast()
	liveSpan := int64(l.durable - l.head)
	l.mu.Unlock()
	metrics.Wal.PeakLiveBytes.Observe(liveSpan)
	return nil
}

// rotate seals the active segment at base (the next block's LSN) and
// opens the next segment file. Called with flushMu held, before the
// block write. The protocol is: create the new segment file with its
// header, publish it in the in-memory table, then re-persist the anchor
// so the durable segment directory names the new segment. A crash
// between create and anchor update leaves an orphan segment that Open
// adopts; a crash before create leaves nothing (re-rotation is from
// scratch); a torn header write leaves a file Open deletes.
func (l *Log) rotate(base LSN) error {
	fp, name := l.segs.fp(), l.segs.name
	if _, ok := fp.Eval(FPRotateBeforeCreate); ok {
		return fmt.Errorf("wal: rotation of %q crashed before segment create: %w", name, failpoint.ErrInjected)
	}
	seg, err := l.segs.createNext(base)
	if err != nil {
		return fmt.Errorf("wal: rotating %q: %w", name, err)
	}
	if _, ok := fp.Eval(FPRotateAfterCreate); ok {
		return fmt.Errorf("wal: rotation of %q crashed after segment create, before anchor update: %w", name, failpoint.ErrInjected)
	}
	l.segs.sealAndAdd(seg)
	metrics.Wal.Rotations.Inc()
	if err := l.anchor.rewrite(); err != nil {
		return fmt.Errorf("wal: rotating %q: %w", name, err)
	}
	if _, ok := fp.Eval(FPRotateAfterAnchor); ok {
		return fmt.Errorf("wal: rotation of %q crashed after anchor update: %w", name, failpoint.ErrInjected)
	}
	return nil
}

// readBuffered serves lsn from memory while its record is still in the
// volatile buffer or in the block of an in-flight flush. Otherwise it
// returns a non-zero durable frontier: the record, if there is one, is
// on the device below it.
func (l *Log) readBuffered(lsn LSN) (typ byte, payload []byte, durable LSN, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn < l.head {
		return 0, nil, 0, ErrTruncated
	}
	mem, start := l.buf, l.bufStart
	if lsn < start {
		// Below the buffer: in the block of an in-flight flush, or durable.
		mem, start = l.pending, l.pendStart
		if lsn < start || int(lsn-start) >= len(mem) {
			return 0, nil, l.durable, nil
		}
	} else if int(lsn-start) >= len(mem) {
		return 0, nil, 0, ErrNotFound
	}
	typ, payload, _, err = parseFrame(mem[lsn-start:])
	if err == nil {
		payload = append([]byte(nil), payload...)
	}
	return typ, payload, 0, err
}

// Close marks the log closed. Buffered (unflushed) records are discarded,
// exactly as a crash would; call Flush first for a clean shutdown.
func (l *Log) Close() error {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	if l.flushReq != nil {
		// Wake the group-commit flusher so it observes closed and exits.
		// The channel is buffered: if a wakeup is already pending the
		// flusher is about to run anyway, and it re-checks closed.
		select {
		case l.flushReq <- struct{}{}:
		default:
		}
	}
	return nil
}
