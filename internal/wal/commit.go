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

	// block is flush scratch: the sector-aligned write block. Between
	// flushes its first carry bytes hold the durable part of the sector
	// the log ends in, which the next flush rewrites ahead of its records.
	// Only the holder of flushing touches them.
	block []byte
	carry int

	mu sync.Mutex //mspr:lock-level 70
	// cond broadcasts when durable advances, a flush ends, or the log
	// dies (flushErr, closed).
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
	// waiters: Flush calls waiting on the durable frontier, the leader
	// included.
	waiters int //mspr:guarded-by mu
	// flushing: a Flush leads a write (or holds the batch window), or
	// RepairTail cuts the tail; everyone else waits on cond.
	flushing bool //mspr:guarded-by mu
	// loaded: Flush calls arrived during the last write, so the burst is
	// still going and the next leader holds the window open.
	loaded bool //mspr:guarded-by mu
	closed bool //mspr:guarded-by mu
	// flushErr records a sticky flush failure.
	flushErr error //mspr:guarded-by mu
	// tornFrom: LSN of a torn tail found by the last Scan (0 = none).
	tornFrom int64 //mspr:guarded-by mu
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
		if err := l.Flush(upTo); err != nil {
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

// Flush makes every record with LSN ≤ upTo durable. It is the log's one
// group commit (§5.5): the first caller to find no write in flight leads
// the next one, which takes the whole buffer, and every other caller
// waits until a write covers it or leads the write after. A leader holds
// the batch window open first when the log is loaded — more than one
// waiter, or calls arrived during the last write — so their records share
// one sector-aligned write; a lone caller on an idle log never pays the
// window as latency. A failed write wedges the log: every waiter, and
// every later Flush, gets the sticky error until the process restarts.
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) Flush(upTo LSN) error {
	l.mu.Lock()
	if upTo < l.durable {
		l.mu.Unlock()
		return nil
	}
	metrics.Wal.GroupCommitWaits.Inc()
	l.waiters++
	var err error
	windowed := false
	for l.durable <= upTo {
		if l.closed {
			err = ErrClosed
			break
		}
		if l.flushErr != nil {
			err = l.flushErr
			break
		}
		if l.flushing {
			l.cond.Wait()
			continue
		}
		if len(l.buf) == 0 {
			break // nothing appended past the durable frontier
		}
		if !windowed && l.window > 0 && (l.loaded || l.waiters > 1) {
			// Hold the window with flushing set, so later callers wait to
			// join this write instead of leading their own. Only Close and
			// a wedge can end the wait early, and both broadcast.
			windowed, l.flushing = true, true
			metrics.Wal.GroupCommitWindows.Inc()
			l.mu.Unlock()
			simtime.Sleep(l.window)
			l.mu.Lock()
			l.flushing = false
			continue
		}
		if _, ok := l.segs.fp().Eval(FPFlushCrash); ok {
			// Crash between buffer append and sync: nothing reaches the disk
			// and no caller was ever told the records were durable.
			l.flushErr = fmt.Errorf("wal: flush of %q crashed before write: %w", l.segs.name, failpoint.ErrInjected)
			l.cond.Broadcast()
			continue
		}
		// Lead: take the buffer, write it with mu released so appends
		// proceed, then publish the new frontier.
		l.flushing = true
		data, start := l.buf, l.bufStart
		end := start + LSN(len(data))
		l.pending, l.pendStart = data, start
		l.buf, l.bufStart = nil, end
		served := l.waiters
		l.mu.Unlock()
		metrics.Wal.GroupCommitBatches.Inc()
		metrics.Wal.GroupCommitBatchWaiters.Add(int64(served))
		werr := l.writeBlock(data, start)
		l.mu.Lock()
		l.flushing = false
		if werr != nil {
			if l.flushErr == nil {
				l.flushErr = werr
			}
		} else {
			l.durable = end
			l.pending = nil
			// The retired append buffer becomes the spare: no reader can
			// reach it once pending is cleared (readBuffered copies
			// payloads under mu).
			l.spare = data[:0]
			l.loaded = l.waiters > served
			metrics.Wal.PeakLiveBytes.Observe(int64(l.durable - l.head))
		}
		l.cond.Broadcast()
	}
	l.waiters--
	l.mu.Unlock()
	return err
}

// writeBlock writes data, the records taken from the buffer at LSN start,
// after the partial sector the last flush ended in (its durable bytes
// rewritten identically) and padded to a sector boundary; the next block
// continues where data ends. A block that would overfill the active
// segment rotates first. Called by the flush leader, without mu.
func (l *Log) writeBlock(data []byte, start LSN) error {
	// Rotation: if this block would overfill the active segment (and the
	// segment already holds records — a segment always accepts its first
	// block, however large), seal it and open the next at the first new
	// record, which leaves the carried sector behind.
	seg, carry := l.segs.active(), l.carry
	held := seg.fileOff(int64(start)) - headerSize // the segment's bytes of records
	if held > 0 && held-int64(carry)+alignUp(int64(carry+len(data))) > l.segSize {
		if err := l.rotate(start); err != nil {
			return err
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
		return err
	}
	l.carry = copy(block, block[filled-filled%sectorSize:filled]) // the next block's prefix

	// A cached read-ahead block covering the just-written region holds
	// stale zeros (read before this flush); drop it. This comes before
	// pending is cleared: until then ReadRecord serves the region from
	// memory, and from then on a read must not find a stale block — it
	// would report a record appended moments ago as not found.
	l.rd.invalidateFrom(seg.index, segOff)
	return nil
}

// rotate seals the active segment at base (the next block's LSN) and
// opens the next segment file. Called by the flush leader, before the
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
	return nil
}
