// Package wal implements the single physical log that every MSP shares
// among all of its sessions and shared variables (§1.3, §3).
//
// The log is an append-only sequence of typed records identified by their
// LSN (byte offset). Appends go to a volatile buffer; a flush writes the
// whole buffer as one sector-aligned log block, so "flush up to LSN n" may
// make more than n durable — which is always safe. Because log blocks are
// aligned at sector boundaries and a block's last sector may not be full,
// on average half a sector is wasted per flush (§5.2); the padding is
// charged to the simulated disk and accounted in its statistics.
//
// Physically the log is a sequence of segment files ("name.000001",
// "name.000002", …), each holding a contiguous LSN range after a
// one-sector header. A flush that would overfill the active segment
// first rotates: it creates the next segment file, seals the current
// one, and re-persists the anchor so the durable segment directory
// names every live segment. Checkpoint-anchored truncation
// (TruncateHead) physically deletes whole segments strictly below the
// anchor head, keeping disk usage and recovery time flat under
// sustained traffic. LSNs remain global byte offsets, so rotation is
// invisible to every layer above.
//
// Batch flushing (§5.5, "group commit") is supported: with a non-zero
// BatchTimeout, a flush request is not executed immediately but after the
// timeout, giving concurrent requests the chance to be satisfied by a
// single larger write.
//
// Crash semantics follow the paper exactly: a crash loses the volatile
// buffer; only flushed records survive. Simulated crashes discard the Log
// object and re-Open the same disk files, then scan to find the largest
// persistent LSN (the recovered state number broadcast in §4.3).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/simdisk"
	"mspr/internal/simtime"
)

// LSN is a log sequence number: the byte offset of a record in the
// logical log, spanning every segment file. LSN 0 is never a valid
// record (the first segment's header occupies the offsets below
// headerSize), so the zero value safely means "none".
type LSN int64

// headerSize is the reserved header of every segment file (one sector).
// The first segment's data starts at LSN headerSize, and within any
// segment the file offset of LSN x is x - base + headerSize.
const headerSize = simdisk.SectorSize

// Segment header layout (one sector at file offset 0):
// [magic:8][index:u64][base:u64][crc32 over the first 24 bytes].
var segMagic = [8]byte{'M', 'S', 'P', 'R', 'S', 'E', 'G', '1'}

const segHeaderLen = 8 + 8 + 8 + 4

// Record framing: [type:1][payloadLen:u32][payload][crc32:u32] where the
// CRC covers type byte and payload. Type 0 marks sector padding.
const frameOverhead = 1 + 4 + 4

// FrameOverhead is the on-log framing cost of one record beyond its
// payload. Consumers that account log consumption per record (the
// crash-recovery analysis scan, session checkpoint thresholds) add it to
// the payload length instead of duplicating the framing layout.
const FrameOverhead = frameOverhead

// ErrNotFound is returned by ReadRecord for an LSN that does not hold a
// valid record.
var ErrNotFound = errors.New("wal: record not found")

// ErrTruncated is returned when reading below the log head: the record
// was discarded after a checkpoint made it unnecessary (§3.2, §3.4).
var ErrTruncated = errors.New("wal: record truncated (below log head)")

// ErrCorrupt is returned by Scan when it finds an unparsable record with
// valid records *after* it, or any unparsable record in a sealed
// (non-final) segment: acknowledged-durable data was damaged in place.
// Unlike a torn tail of the final segment (which only loses
// never-acknowledged records and is repairable with RepairTail),
// mid-log corruption cannot be repaired without violating the
// durability contract, so it is surfaced as a hard error.
var ErrCorrupt = errors.New("wal: log corrupted")

// Failpoints evaluated by the log layer, armed through the registry
// attached to the backing disk (simdisk.Disk.SetFailpoints).
const (
	// FPFlushCrash crashes a flush after records were appended to the
	// volatile buffer but before the block write — the window between
	// buffer append and sync. Nothing reaches the disk; the flush
	// reports failpoint.ErrInjected and the log wedges (sticky flushErr)
	// until the simulated process restarts.
	FPFlushCrash = "wal.flush.crash"
	// FPAnchorCrash tears an anchor-slot write (a seeded-random prefix
	// of the slot is persisted) and reports failpoint.ErrInjected,
	// exercising the double-buffered anchor fallback path.
	FPAnchorCrash = "wal.anchor.crash"
	// FPRotateBeforeCreate crashes a rotation before the new segment
	// file exists: the next incarnation re-rotates from scratch.
	FPRotateBeforeCreate = "wal.rotate.before-create"
	// FPRotateAfterCreate crashes a rotation after the new segment file
	// (and its header) is durable but before the anchor's segment
	// directory is rewritten: recovery must adopt the orphan segment.
	FPRotateAfterCreate = "wal.rotate.after-create"
	// FPRotateAfterAnchor crashes a rotation after the anchor update,
	// before any block lands in the new segment: recovery opens an
	// empty final segment named by the directory.
	FPRotateAfterAnchor = "wal.rotate.after-anchor"
	// FPTruncateCrash crashes a head truncation between segment-file
	// deletions: recovery's re-truncation must finish the job
	// idempotently.
	FPTruncateCrash = "wal.truncate.crash"
)

// Config controls a Log's flushing behaviour.
type Config struct {
	// BatchTimeout, if non-zero, delays every flush request by this model
	// duration so that several requests can share one disk write (§5.5).
	// The paper's experiments use 8 ms, roughly one log-write time.
	BatchTimeout time.Duration
	// MaxBuffer bounds the volatile buffer; an Append that would exceed it
	// triggers a flush of the buffered records first. The paper's log
	// blocks vary from 1 to 128 sectors; the default is 128 sectors.
	MaxBuffer int
	// ReadAhead is the size of recovery-time log reads. The paper uses
	// 128 sectors (64 KB) so that one read serves many replayed records.
	ReadAhead int
	// SegmentSize is the data capacity (bytes, excluding the one-sector
	// header) of one segment file. A flush that would exceed it rotates
	// to a new segment first; TruncateHead physically deletes whole
	// segments below the head. The default is 4 MB. A single flush
	// block larger than SegmentSize still fits (a segment holds at
	// least one block).
	SegmentSize int64
}

func (c Config) withDefaults() Config {
	if c.MaxBuffer <= 0 {
		c.MaxBuffer = 128 * simdisk.SectorSize
	}
	if c.ReadAhead <= 0 {
		c.ReadAhead = 128 * simdisk.SectorSize
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 4 << 20
	}
	if c.SegmentSize < 2*simdisk.SectorSize {
		c.SegmentSize = 2 * simdisk.SectorSize
	}
	return c
}

// segment is one physical segment file covering the LSN range
// [base, end); end is 0 while the segment is active (still appended to).
// Fields are guarded by Log.segMu; readers take copies (segView).
type segment struct {
	index uint64
	base  LSN
	end   LSN
	file  *simdisk.File
}

// segView is a point-in-time copy of a segment's coordinates, safe to
// use without holding segMu (the file handle itself is concurrency-safe
// and never mutated after creation; end only transitions 0 → sealed).
type segView struct {
	index uint64
	base  LSN
	end   LSN
	file  *simdisk.File
}

// dirEntry is one anchor segment-directory entry.
type dirEntry struct {
	index uint64
	base  LSN
}

// cacheKey addresses one read-ahead block: a segment plus the
// block-aligned offset within its file.
type cacheKey struct {
	seg uint64
	off int64
}

// Log is an MSP's physical log. It is safe for concurrent use by the
// MSP's worker threads.
type Log struct {
	cfg    Config
	disk   *simdisk.Disk
	name   string
	anchor *simdisk.File

	mu sync.Mutex
	// head: records below it have been discarded.
	head LSN //mspr:guarded-by mu
	// cond broadcasts when durable advances or batch state changes.
	cond *sync.Cond
	// buf is the volatile buffer: records appended since bufStart.
	buf []byte //mspr:guarded-by mu
	// bufStart: LSN of buf[0]; always sector-aligned.
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
	// flushGen increments when a flush completes.
	flushGen int64 //mspr:guarded-by mu
	// waiters: Flush calls waiting on the durable frontier.
	waiters int  //mspr:guarded-by mu
	closed  bool //mspr:guarded-by mu
	// flushErr records a sticky flush failure.
	flushErr error //mspr:guarded-by mu
	// appendSeal rejects appends (tests simulating a wedged log).
	appendSeal bool //mspr:guarded-by mu

	// flushReq wakes the persistent group-commit flusher (flusherLoop).
	// Buffered with capacity 1: a send coalesces with an already-pending
	// wakeup, and the channel is never closed (Close signals through it
	// and the loop exits on the closed flag).
	flushReq chan struct{}

	// tornFrom: LSN of a torn tail found by the last Scan (0 = none).
	tornFrom int64 //mspr:guarded-by mu

	// flushMu serializes physical flushes and rotations.
	flushMu sync.Mutex
	// block is flush scratch: the padded sector-aligned write block.
	block []byte //mspr:guarded-by flushMu

	// segMu guards segs and segment end fields.
	segMu sync.RWMutex
	// segs is ascending by index; the last one is active.
	segs []*segment //mspr:guarded-by segMu

	// anchorMu guards the anchor bookkeeping and anchor-slot writes.
	anchorMu sync.Mutex
	// anchorSeq: sequence number of the newest valid anchor slot.
	anchorSeq uint64 //mspr:guarded-by anchorMu
	// lastAnchor: the newest durable anchor (rotation re-persists it
	// with a wider directory).
	lastAnchor Anchor //mspr:guarded-by anchorMu
	// hasAnchor: lastAnchor is valid (an anchor was written or read).
	hasAnchor bool //mspr:guarded-by anchorMu

	// readMu guards the read-ahead cache.
	readMu     sync.Mutex
	cache      map[cacheKey][]byte //mspr:guarded-by readMu
	cacheOrder []cacheKey          //mspr:guarded-by readMu
}

// readCacheBlocks bounds the read-ahead cache (per log). Parallel session
// recovery (§4.3) interleaves reads from several log regions; a handful
// of cached blocks keeps each replaying session's locality intact.
const readCacheBlocks = 8

// segFileName names segment idx of the named log ("name.000001", …;
// the width grows naturally past 999999).
func segFileName(name string, idx uint64) string {
	return fmt.Sprintf("%s.%06d", name, idx)
}

// parseSegIndex extracts the segment index from a file name of the form
// name.NNNNNN; ok is false for any other name (e.g. the anchor file).
func parseSegIndex(name, fileName string) (uint64, bool) {
	suffix, found := strings.CutPrefix(fileName, name+".")
	if !found || len(suffix) < 6 {
		return 0, false
	}
	var idx uint64
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + uint64(c-'0')
	}
	return idx, true
}

func encodeSegHeader(idx uint64, base LSN) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], idx)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(base))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(hdr[:24]))
	return hdr
}

// readSegHeader validates a segment file's header sector (a mount-time
// peek, not a modelled I/O).
func readSegHeader(f *simdisk.File) (idx uint64, base LSN, ok bool) {
	hdr := make([]byte, segHeaderLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, 0, false
	}
	if [8]byte(hdr[:8]) != segMagic {
		return 0, 0, false
	}
	if crc32.ChecksumIEEE(hdr[:24]) != binary.LittleEndian.Uint32(hdr[24:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(hdr[8:]), LSN(binary.LittleEndian.Uint64(hdr[16:])), true
}

// Open opens (creating if necessary) the named log on disk. It
// enumerates the segment files, validates them against the anchor's
// segment directory, adopts the single orphan segment a crashed
// rotation may have left, deletes a torn segment-create leftover, and
// refuses to start when a segment at or after the anchor head is
// missing. After a crash, Open alone does not determine the durable
// frontier precisely; the recovery scan (Scan) reports the last valid
// record so the caller can learn the recovered state number.
//
//mspr:guardedby mount-time initialization: the Log is not yet published
func Open(disk *simdisk.Disk, name string, cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	l := &Log{
		cfg:    cfg,
		disk:   disk,
		name:   name,
		anchor: disk.OpenFile(name + ".anchor"),
		cache:  make(map[cacheKey][]byte),
	}
	l.cond = sync.NewCond(&l.mu)

	// Learn the newest anchor slot: its sequence number (so the first
	// WriteAnchor of this incarnation keeps alternating slots), the last
	// durable anchor, and the segment directory. This is a mount-time
	// peek, not a modelled I/O; ReadAnchor charges the read.
	var dir []dirEntry
	for slot := int64(0); slot < 2; slot++ {
		buf := make([]byte, anchorSlotStride)
		if _, err := l.anchor.ReadAt(buf, slot*anchorSlotStride); err != nil {
			return nil, fmt.Errorf("wal: reading anchor slot: %w", err)
		}
		if a, d, seq, ok := parseAnchorSlot(buf); ok && seq > l.anchorSeq {
			l.anchorSeq = seq
			l.lastAnchor, l.hasAnchor = a, true
			dir = d
		}
	}

	if err := l.openSegments(dir); err != nil {
		return nil, err
	}
	final := l.segs[len(l.segs)-1]
	frontier := final.base + LSN(alignUp(final.file.Size()-headerSize))
	l.bufStart = frontier
	l.nextLSN = frontier
	l.durable = frontier
	l.head = l.segs[0].base

	if cfg.BatchTimeout > 0 {
		l.flushReq = make(chan struct{}, 1)
		go l.flusherLoop()
	}
	return l, nil
}

// openSegments enumerates, validates and reconciles the segment files
// against the anchor's segment directory (nil when no anchor exists).
//
//mspr:guardedby mount-time initialization: the Log is not yet published
func (l *Log) openSegments(dir []dirEntry) error {
	var segs []*segment
	var broken []string // files with a torn or invalid header
	for _, fn := range l.disk.List(l.name + ".") {
		idx, ok := parseSegIndex(l.name, fn)
		if !ok {
			continue // the anchor file, or unrelated
		}
		f := l.disk.OpenFile(fn)
		hIdx, base, ok := readSegHeader(f)
		if !ok || hIdx != idx {
			broken = append(broken, fn)
			continue
		}
		segs = append(segs, &segment{index: idx, base: base, file: f})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })

	if len(segs) == 0 {
		if len(broken) > 0 {
			return fmt.Errorf("wal: %q has no valid segment (torn: %v)", l.name, broken)
		}
		if l.hasAnchor {
			return fmt.Errorf("wal: %q has an anchor but no segment files", l.name)
		}
		seg, err := l.createSegment(1, headerSize, false)
		if err != nil {
			return err
		}
		l.segs = []*segment{seg}
		return nil
	}

	// A broken header is tolerable only on the file a crashed rotation
	// was creating (index one past the newest valid segment): delete it;
	// the next rotation recreates it. Anywhere else it is corruption.
	maxIdx := segs[len(segs)-1].index
	for _, fn := range broken {
		idx, _ := parseSegIndex(l.name, fn)
		if idx != maxIdx+1 {
			return fmt.Errorf("wal: segment %q has a corrupt header", fn)
		}
		l.disk.Remove(fn) // torn segment create; never counted live
	}

	// Contiguity: each segment must start exactly where its predecessor
	// ends, with no index gaps. Sealed ends derive from file sizes
	// (every sealed write was sector-aligned).
	for i := 1; i < len(segs); i++ {
		prev, s := segs[i-1], segs[i]
		if s.index != prev.index+1 {
			return fmt.Errorf("wal: %q segment %06d missing (found %06d then %06d)",
				l.name, prev.index+1, prev.index, s.index)
		}
		prevEnd := prev.base + LSN(alignUp(prev.file.Size()-headerSize))
		if s.base != prevEnd {
			return fmt.Errorf("wal: segment %q starts at LSN %d, want %d (sealed predecessor ends there)",
				s.file.Name(), s.base, prevEnd)
		}
		prev.end = prevEnd
	}

	if l.hasAnchor && len(dir) > 0 {
		byIdx := make(map[uint64]*segment, len(segs))
		for _, s := range segs {
			byIdx[s.index] = s
		}
		for i, e := range dir {
			entEnd := LSN(math.MaxInt64)
			if i+1 < len(dir) {
				entEnd = dir[i+1].base
			}
			s, ok := byIdx[e.index]
			if !ok {
				if entEnd > l.lastAnchor.Head {
					return fmt.Errorf("wal: %q refuses to open: segment %06d holds records at or after the anchor head %d but is missing",
						l.name, e.index, l.lastAnchor.Head)
				}
				continue // wholly below the head: reclaimed (possibly by an interrupted truncation)
			}
			if s.base != e.base {
				return fmt.Errorf("wal: segment %q starts at LSN %d but the anchor directory says %d",
					s.file.Name(), s.base, e.base)
			}
		}
		// A file unknown to the directory is adoptable only if it is the
		// next segment after the directory's newest entry — the orphan of
		// a rotation that crashed between segment create and anchor
		// update. Anything else is inconsistent.
		inDir := make(map[uint64]bool, len(dir))
		for _, e := range dir {
			inDir[e.index] = true
		}
		maxDir := dir[len(dir)-1].index
		for _, s := range segs {
			if !inDir[s.index] && s.index != maxDir+1 {
				return fmt.Errorf("wal: segment %q is not in the anchor directory", s.file.Name())
			}
		}
	}

	l.segs = segs
	return nil
}

// createSegment creates segment file idx with its header durable.
// charge selects whether the header write is charged to the disk
// (rotation) or not (mount-time creation of a fresh log, mirroring the
// historical header write).
func (l *Log) createSegment(idx uint64, base LSN, charge bool) (*segment, error) {
	fn := segFileName(l.name, idx)
	if l.disk.OpenFile(fn).Size() != 0 {
		// Leftover from an earlier crashed rotation (never adopted, so
		// never counted live): recreate from scratch.
		l.disk.Remove(fn)
	}
	f := l.disk.OpenFile(fn)
	if _, err := f.WriteAt(encodeSegHeader(idx, base), 0); err != nil {
		return nil, fmt.Errorf("wal: writing header of %q: %w", fn, err)
	}
	if charge {
		l.disk.ChargeWrite(1, 0)
	}
	metrics.Wal.SegmentsLive.Add(1)
	return &segment{index: idx, base: base, file: f}, nil
}

// fp returns the fault-injection registry shared through the backing
// disk; nil (injection off) is safe to Eval.
func (l *Log) fp() *failpoint.Registry { return l.disk.Failpoints() }

func alignUp(n int64) int64 {
	const s = simdisk.SectorSize
	return (n + s - 1) / s * s
}

// activeSeg returns a view of the newest (appendable) segment.
func (l *Log) activeSeg() segView {
	l.segMu.RLock()
	defer l.segMu.RUnlock()
	s := l.segs[len(l.segs)-1]
	return segView{s.index, s.base, s.end, s.file}
}

// segAt returns a view of the segment covering the given LSN offset.
func (l *Log) segAt(off int64) (segView, bool) {
	l.segMu.RLock()
	defer l.segMu.RUnlock()
	for i := len(l.segs) - 1; i >= 0; i-- {
		s := l.segs[i]
		if LSN(off) >= s.base && (s.end == 0 || LSN(off) < s.end) {
			return segView{s.index, s.base, s.end, s.file}, true
		}
	}
	return segView{}, false
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
		return 0, errors.New("wal: log closed")
	}
	if len(l.buf)+len(payload)+frameOverhead > l.cfg.MaxBuffer && len(l.buf) > 0 {
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

func appendFrame(buf []byte, typ byte, payload []byte) []byte {
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	// crc32.Update avoids allocating a hasher per record on the append
	// hot path (the type-byte slice stays on the stack).
	crc := crc32.Update(0, crc32.IEEETable, []byte{typ})
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf
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

// LastAppended returns the LSN of the most recently appended record, or 0
// if nothing has been appended since the log was opened.
func (l *Log) LastAppended() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextLSN == l.bufStart && len(l.pending) == 0 {
		return 0
	}
	return l.nextLSN - 1 // any LSN within the last record identifies it for flushing
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
	if l.cfg.BatchTimeout <= 0 {
		l.mu.Unlock()
		return l.flushNow(upTo)
	}
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: log closed during flush")
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
	closed := l.closed && l.durable <= upTo
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if closed {
		return errors.New("wal: log closed during flush")
	}
	return nil
}

// flusherLoop is the persistent group-commit flusher: one long-lived
// goroutine per log that serves every batched Flush. The batch window is
// adaptive (§5.5): a lone waiter is flushed immediately (an idle system
// should not pay the window as latency), while concurrent waiters hold
// the window open so their records share one sector-aligned write. Errors
// reach waiters through the sticky flushErr set inside flushNow; Close
// wakes the loop through flushReq and it exits on the closed flag.
func (l *Log) flusherLoop() {
	scaled := time.Duration(float64(l.cfg.BatchTimeout) * l.disk.Model().TimeScale)
	if scaled <= 0 {
		// Batching is a behavioural delay, not a modelled disk latency:
		// keep a small window even at TimeScale 0 so requests can combine.
		scaled = 100 * time.Microsecond
	}
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
			simtime.Sleep(scaled)
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
		//mspr:walerr error is sticky in flushErr and observed by every waiter
		_ = l.flushNow(upTo)
		l.mu.Lock()
		loaded = l.waiters > 0
		l.mu.Unlock()
	}
}

// flushNow writes the buffered records (all of them, padded to a sector
// boundary) and advances the durable frontier, rotating to a new segment
// first when the block would overfill the active one. Concurrent appends
// proceed while the simulated write is in flight; their records form the
// next block.
func (l *Log) flushNow(upTo LSN) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errors.New("wal: log closed")
	}
	if l.flushErr != nil {
		// A previous flush failed; the log is wedged until the process
		// restarts and recovers, exactly like a dead log device.
		err := l.flushErr
		l.mu.Unlock()
		return err
	}
	if upTo < l.durable || len(l.buf) == 0 {
		// A racing flush already covered this request.
		l.mu.Unlock()
		return nil
	}
	if _, ok := l.fp().Eval(FPFlushCrash); ok {
		// Crash between buffer append and sync: nothing reaches the disk
		// and no caller was ever told the records were durable. The error
		// is sticky, like a real dead process's log.
		err := fmt.Errorf("wal: flush of %q crashed before write: %w", l.name, failpoint.ErrInjected)
		l.flushErr = err
		l.cond.Broadcast()
		l.mu.Unlock()
		return err
	}
	data := l.buf
	start := l.bufStart
	padded := alignUp(int64(start) + int64(len(data)))
	waste := int(padded - int64(start) - int64(len(data)))
	// The write block is scratch reused across flushes (flushMu is held
	// throughout): the disk copies it during WriteAt, so only the pad
	// region needs explicit zeroing.
	need := int(padded - int64(start))
	if cap(l.block) < need {
		l.block = make([]byte, need)
	}
	block := l.block[:need]
	for i := copy(block, data); i < need; i++ {
		block[i] = 0
	}
	l.pending = data
	l.pendStart = start
	l.buf = nil
	l.bufStart = LSN(padded)
	l.nextLSN = LSN(padded)
	l.mu.Unlock()

	// Rotation: if this block would overfill the active segment (and the
	// segment already holds at least one block — a segment always
	// accepts its first block, however large), seal it and open the
	// next. Rotation failures are sticky like any flush failure: the
	// crash landed mid-protocol and only a restart may proceed.
	seg := l.activeSeg()
	segOff := int64(start) - int64(seg.base) + headerSize
	if segOff > headerSize && segOff-headerSize+int64(need) > l.cfg.SegmentSize {
		if rerr := l.rotate(start); rerr != nil {
			l.mu.Lock()
			l.flushErr = rerr
			l.cond.Broadcast()
			l.mu.Unlock()
			return rerr
		}
		seg = l.activeSeg()
		segOff = headerSize
	}

	var werr error
	for attempt := 0; ; attempt++ {
		if _, werr = seg.file.WriteAt(block, segOff); werr == nil {
			break
		}
		if attempt >= 2 || !errors.Is(werr, simdisk.ErrTransientWrite) {
			break
		}
		metrics.Recovery.TransientWriteRetries.Inc()
	}
	if werr != nil {
		l.mu.Lock()
		l.flushErr = werr
		l.cond.Broadcast()
		l.mu.Unlock()
		return werr
	}
	sectors := len(block) / simdisk.SectorSize
	l.disk.ChargeWrite(sectors, waste)

	// Cached read-ahead blocks covering the just-written region hold
	// stale zeros (read before this flush); drop them. This comes before
	// pending is cleared: until then ReadRecord serves the region from
	// memory, and from then on a read must not find a stale block — it
	// would report a record appended moments ago as not found.
	l.readMu.Lock()
	ra := int64(l.cfg.ReadAhead)
	kept := l.cacheOrder[:0]
	for _, key := range l.cacheOrder {
		if key.seg == seg.index && key.off+ra > segOff {
			delete(l.cache, key)
		} else {
			kept = append(kept, key)
		}
	}
	l.cacheOrder = kept
	l.readMu.Unlock()

	l.mu.Lock()
	l.durable = LSN(padded)
	l.pending = nil
	// The retired append buffer becomes the spare: no reader can reach it
	// once pending is cleared (ReadRecord copies payloads under l.mu).
	l.spare = data[:0]
	l.flushGen++
	l.cond.Broadcast()
	liveSpan := int64(l.durable - l.head)
	l.mu.Unlock()
	metrics.Wal.LiveLogBytes.Add(int64(need))
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
	fp := l.fp()
	if _, ok := fp.Eval(FPRotateBeforeCreate); ok {
		return fmt.Errorf("wal: rotation of %q crashed before segment create: %w", l.name, failpoint.ErrInjected)
	}
	old := l.activeSeg()
	seg, err := l.createSegment(old.index+1, base, true)
	if err != nil {
		return fmt.Errorf("wal: rotating %q: %w", l.name, err)
	}
	if _, ok := fp.Eval(FPRotateAfterCreate); ok {
		return fmt.Errorf("wal: rotation of %q crashed after segment create, before anchor update: %w", l.name, failpoint.ErrInjected)
	}
	l.segMu.Lock()
	l.segs[len(l.segs)-1].end = base
	l.segs = append(l.segs, seg)
	l.segMu.Unlock()
	metrics.Wal.Rotations.Inc()
	// Re-persist the anchor so its segment directory includes the new
	// segment. Before the first checkpoint anchor exists there is
	// nothing to rewrite — and writing a zero anchor would invent a
	// checkpoint at LSN 0 — so recovery instead accepts every contiguous
	// segment of an anchorless log.
	l.anchorMu.Lock()
	if l.hasAnchor {
		if aerr := l.writeAnchorLocked(l.lastAnchor); aerr != nil {
			l.anchorMu.Unlock()
			return fmt.Errorf("wal: rotating %q: %w", l.name, aerr)
		}
	}
	l.anchorMu.Unlock()
	if _, ok := fp.Eval(FPRotateAfterAnchor); ok {
		return fmt.Errorf("wal: rotation of %q crashed after anchor update: %w", l.name, failpoint.ErrInjected)
	}
	return nil
}

// ReadRecord returns the record at lsn. Records still in the volatile
// buffer are served from memory; durable records are read through the
// 64 KB read-ahead cache (ascending replay reads therefore amortize to
// one disk read per 128 sectors, as in §5.4).
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) ReadRecord(lsn LSN) (typ byte, payload []byte, err error) {
	if lsn < headerSize {
		return 0, nil, ErrNotFound
	}
	l.mu.Lock()
	if lsn < l.head {
		l.mu.Unlock()
		return 0, nil, ErrTruncated
	}
	if lsn >= l.bufStart {
		off := int(lsn - l.bufStart)
		if off >= len(l.buf) {
			l.mu.Unlock()
			return 0, nil, ErrNotFound
		}
		typ, payload, _, err = parseFrame(l.buf[off:])
		if err == nil {
			payload = append([]byte(nil), payload...)
		}
		l.mu.Unlock()
		return typ, payload, err
	}
	if lsn >= l.pendStart && l.pending != nil {
		off := int(lsn - l.pendStart)
		if off < len(l.pending) {
			typ, payload, _, err = parseFrame(l.pending[off:])
			if err == nil {
				payload = append([]byte(nil), payload...)
			}
			l.mu.Unlock()
			return typ, payload, err
		}
	}
	l.mu.Unlock()
	return l.readDurable(lsn)
}

// readDurable reads a record from the device via the read-ahead cache.
func (l *Log) readDurable(lsn LSN) (byte, []byte, error) {
	hdr, err := l.cachedBytes(int64(lsn), 5)
	if err != nil {
		return 0, nil, err
	}
	typ := hdr[0]
	if typ == 0 {
		return 0, nil, ErrNotFound
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	frame, err := l.cachedBytes(int64(lsn), int(n)+frameOverhead)
	if err != nil {
		return 0, nil, err
	}
	typ, payload, _, err := parseFrame(frame)
	if err != nil {
		return 0, nil, err
	}
	return typ, append([]byte(nil), payload...), nil
}

// cachedBytes returns n bytes starting at logical offset off, reading
// through the per-segment read-ahead cache. A range crossing a sealed
// segment's end continues seamlessly in the next segment (records never
// span segments, but probe reads may).
func (l *Log) cachedBytes(off int64, n int) ([]byte, error) {
	l.readMu.Lock()
	defer l.readMu.Unlock()
	var out []byte
	ra := int64(l.cfg.ReadAhead)
	for n > 0 {
		seg, ok := l.segAt(off)
		if !ok {
			return nil, fmt.Errorf("wal: LSN %d is below the first live segment of %q", off, l.name)
		}
		fileOff := off - int64(seg.base) + headerSize
		blockOff := fileOff / ra * ra
		key := cacheKey{seg.index, blockOff}
		block, ok := l.cache[key]
		if !ok {
			// Clamp the read to a sealed segment's data end so bytes past
			// the seal never masquerade as zeros of this segment.
			readLen := ra
			if seg.end != 0 {
				segFileEnd := int64(seg.end-seg.base) + headerSize
				if blockOff+readLen > segFileEnd {
					readLen = segFileEnd - blockOff
				}
			}
			buf := make([]byte, readLen)
			if _, err := seg.file.ReadAt(buf, blockOff); err != nil {
				return nil, err
			}
			l.disk.ChargeRead(int((readLen + simdisk.SectorSize - 1) / simdisk.SectorSize))
			if len(l.cacheOrder) >= readCacheBlocks {
				evict := l.cacheOrder[0]
				l.cacheOrder = l.cacheOrder[1:]
				delete(l.cache, evict)
			}
			l.cache[key] = buf
			l.cacheOrder = append(l.cacheOrder, key)
			block = buf
		}
		i := int(fileOff - blockOff)
		take := len(block) - i
		if take > n {
			take = n
		}
		if out == nil && take == n {
			// The whole range lies inside one cached block: return a
			// subslice without copying. Cached blocks are immutable once
			// loaded (eviction only drops the reference), so the subslice
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

// InvalidateCache drops the read-ahead cache. Tests use it to force
// re-reads; recovery calls it after reopening a log.
func (l *Log) InvalidateCache() {
	l.readMu.Lock()
	l.cache = make(map[cacheKey][]byte)
	l.cacheOrder = nil
	l.readMu.Unlock()
}

func parseFrame(b []byte) (typ byte, payload []byte, size int, err error) {
	if len(b) < frameOverhead {
		return 0, nil, 0, ErrNotFound
	}
	typ = b[0]
	if typ == 0 {
		return 0, nil, 0, ErrNotFound
	}
	n := int(binary.LittleEndian.Uint32(b[1:5]))
	if len(b) < frameOverhead+n {
		return 0, nil, 0, ErrNotFound
	}
	payload = b[5 : 5+n]
	want := binary.LittleEndian.Uint32(b[5+n : 5+n+4])
	crc := crc32.Update(0, crc32.IEEETable, b[:1])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != want {
		return 0, nil, 0, fmt.Errorf("wal: bad crc at record")
	}
	return typ, payload, frameOverhead + n, nil
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
	if from < headerSize {
		from = headerSize
	}
	if h := l.Head(); from < h {
		from = h
	}
	l.mu.Lock()
	l.tornFrom = 0
	l.mu.Unlock()
	end := l.Durable()
	off := int64(from)
	for off < int64(end) {
		// One probe read covers both the padding check and the length
		// field; clamped at the durable end, where a partial header can
		// only be padding or a torn tail.
		hn := 5
		if int64(end)-off < 5 {
			hn = int(int64(end) - off)
		}
		hdr, err := l.cachedBytes(off, hn)
		if err != nil {
			return last, err
		}
		if hdr[0] == 0 {
			// Padding: skip to the next sector boundary.
			next := alignUp(off + 1)
			if next == off {
				next = off + simdisk.SectorSize
			}
			off = next
			continue
		}
		bad := hn < 5 // no room for a frame header before the durable end
		var n int
		if !bad {
			n = int(binary.LittleEndian.Uint32(hdr[1:5]))
			bad = int64(n) > int64(end)-off // length field runs past the durable end
		}
		var typ byte
		var payload []byte
		var size int
		if !bad {
			frame, err := l.cachedBytes(off, n+frameOverhead)
			if err != nil {
				return last, err
			}
			var perr error
			typ, payload, size, perr = parseFrame(frame)
			bad = perr != nil
		}
		if bad {
			valid, perr := l.probeValidAfter(off, int64(end))
			if perr != nil {
				return last, perr
			}
			if valid {
				metrics.Recovery.MidLogCorruptions.Inc()
				return last, fmt.Errorf("wal: unparsable record at LSN %d with valid records after it: %w", off, ErrCorrupt)
			}
			if seg, ok := l.segAt(off); !ok || seg.end != 0 {
				// A tear is only repairable in the final segment: a sealed
				// segment holds exclusively acknowledged-durable data, so
				// an unparsable frame there is in-place damage even when
				// the segments after it are empty.
				metrics.Recovery.MidLogCorruptions.Inc()
				return last, fmt.Errorf("wal: unparsable record at LSN %d in sealed segment: %w", off, ErrCorrupt)
			}
			l.mu.Lock()
			l.tornFrom = off
			l.mu.Unlock()
			break // torn tail: only never-acknowledged records lost
		}
		if fn != nil {
			if err := fn(LSN(off), typ, payload); err != nil {
				return last, err
			}
		}
		last = LSN(off)
		off += int64(size)
	}
	return last, nil
}

// probeValidAfter reports whether any fully valid record starts at a
// sector boundary after off. Flush blocks always start at sector
// boundaries, so a later block's first record is found here; garbage
// inside the damaged block itself fails the CRC and is skipped. The
// probe spans segment boundaries (cachedBytes follows the chain), so a
// valid record in a later segment convicts damage in an earlier one.
func (l *Log) probeValidAfter(off, end int64) (bool, error) {
	for p := alignUp(off + 1); p < end; p += simdisk.SectorSize {
		hdr, err := l.cachedBytes(p, 5)
		if err != nil {
			return false, err
		}
		if hdr[0] == 0 {
			continue
		}
		n := int(binary.LittleEndian.Uint32(hdr[1:5]))
		if int64(n) > end-p {
			continue
		}
		frame, err := l.cachedBytes(p, n+frameOverhead)
		if err != nil {
			return false, err
		}
		if _, _, _, perr := parseFrame(frame); perr == nil {
			return true, nil
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
	if off == 0 || len(l.buf) > 0 || l.pending != nil {
		// Nothing torn, or appends already landed past the tear — the
		// caller broke the scan-then-repair protocol; refuse.
		l.mu.Unlock()
		return false
	}
	seg, ok := l.segAt(off)
	if !ok || seg.end != 0 {
		// Defensive: a tear below the final segment is corruption, not a
		// repairable tail; Scan should never record one.
		l.mu.Unlock()
		return false
	}
	aligned := alignUp(off)
	l.bufStart = LSN(aligned)
	l.nextLSN = LSN(aligned)
	if l.durable > LSN(aligned) {
		l.durable = LSN(aligned)
	}
	l.mu.Unlock()
	//mspr:walerr best-effort repair: a failed truncate leaves the torn tail for the next scan to re-detect
	seg.file.Truncate(off - int64(seg.base) + headerSize) // the [off, aligned) gap reads as zeros: padding
	l.InvalidateCache()
	metrics.Recovery.CorruptTailTruncations.Inc()
	return true
}

// Anchor is the content of the log anchor block (§3.4): the location of
// the most recent MSP checkpoint, the MSP's current epoch number, and
// the log head (records below it have been discarded). The physical
// anchor slot additionally carries the segment directory — every live
// segment's index and base LSN — maintained internally by the log
// (rotation widens it, truncation shrinks it at the next write).
type Anchor struct {
	Epoch         uint32
	CheckpointLSN LSN
	Head          LSN
}

// The anchor file holds two fixed-stride slots, written alternately and
// stamped with a monotone sequence number. A crash tearing the slot
// being written leaves the other slot — holding the previous anchor —
// intact, so an anchor update is never a single point of failure.
// Slot layout: [magic:4][seq:u64][epoch:u32][ckptLSN:u64][head:u64]
// [nseg:u32][nseg × (index:u64, base:u64)][crc32 over everything
// before it], zero-padded to a sector multiple.
var anchorMagic = [4]byte{'A', 'N', 'C', '3'}

const (
	anchorFixedLen   = 4 + 8 + 4 + 8 + 8 + 4
	anchorEntryLen   = 16
	anchorSlotStride = 4 * simdisk.SectorSize
	// maxDirEntries bounds the segment directory to what a slot holds.
	// 125 live segments means truncation has stalled for an entire
	// checkpoint-interval × 125 of traffic; surfacing the overflow as an
	// error beats silently growing the anchor.
	maxDirEntries = (anchorSlotStride - anchorFixedLen - 4) / anchorEntryLen
)

func encodeAnchorSlot(a Anchor, seq uint64, dir []dirEntry) []byte {
	used := anchorFixedLen + len(dir)*anchorEntryLen + 4
	buf := make([]byte, alignUp(int64(used)))
	copy(buf, anchorMagic[:])
	binary.LittleEndian.PutUint64(buf[4:], seq)
	binary.LittleEndian.PutUint32(buf[12:], a.Epoch)
	binary.LittleEndian.PutUint64(buf[16:], uint64(a.CheckpointLSN))
	binary.LittleEndian.PutUint64(buf[24:], uint64(a.Head))
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(dir)))
	off := anchorFixedLen
	for _, e := range dir {
		binary.LittleEndian.PutUint64(buf[off:], e.index)
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(e.base))
		off += anchorEntryLen
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

func parseAnchorSlot(buf []byte) (a Anchor, dir []dirEntry, seq uint64, ok bool) {
	if len(buf) < anchorFixedLen+4 || [4]byte(buf[:4]) != anchorMagic {
		return Anchor{}, nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(buf[32:]))
	end := anchorFixedLen + n*anchorEntryLen
	if n > maxDirEntries || end+4 > len(buf) {
		return Anchor{}, nil, 0, false
	}
	if crc32.ChecksumIEEE(buf[:end]) != binary.LittleEndian.Uint32(buf[end:]) {
		return Anchor{}, nil, 0, false
	}
	seq = binary.LittleEndian.Uint64(buf[4:])
	a.Epoch = binary.LittleEndian.Uint32(buf[12:])
	a.CheckpointLSN = LSN(binary.LittleEndian.Uint64(buf[16:]))
	a.Head = LSN(binary.LittleEndian.Uint64(buf[24:]))
	dir = make([]dirEntry, n)
	off := anchorFixedLen
	for i := range dir {
		dir[i] = dirEntry{
			index: binary.LittleEndian.Uint64(buf[off:]),
			base:  LSN(binary.LittleEndian.Uint64(buf[off+8:])),
		}
		off += anchorEntryLen
	}
	return a, dir, seq, true
}

// WriteAnchor durably records the anchor together with the current
// segment directory, charging the slot write. The write goes to the
// slot NOT holding the newest valid anchor, so the previous anchor
// survives until the new one is fully on disk.
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) WriteAnchor(a Anchor) error {
	l.anchorMu.Lock()
	defer l.anchorMu.Unlock()
	return l.writeAnchorLocked(a)
}

// writeAnchorLocked is WriteAnchor's body; the caller holds anchorMu
// (rotation calls it while already persisting the widened directory).
//
//mspr:holds anchorMu
func (l *Log) writeAnchorLocked(a Anchor) error {
	l.segMu.RLock()
	dir := make([]dirEntry, len(l.segs))
	for i, s := range l.segs {
		dir[i] = dirEntry{s.index, s.base}
	}
	l.segMu.RUnlock()
	if len(dir) > maxDirEntries {
		return fmt.Errorf("wal: %d live segments exceed the anchor directory capacity of %d (truncation stalled?)",
			len(dir), maxDirEntries)
	}
	seq := l.anchorSeq + 1
	buf := encodeAnchorSlot(a, seq, dir)
	used := anchorFixedLen + len(dir)*anchorEntryLen + 4
	off := int64(seq%2) * anchorSlotStride
	if hit, ok := l.fp().Eval(FPAnchorCrash); ok {
		// Tear the slot write: persist a prefix long enough to damage the
		// stored sequence number (so the slot cannot masquerade as its
		// old self) but never the whole encoded slot (the CRC stays
		// incomplete). Arg pins the prefix length.
		keep := 5 + int(hit.R%int64(used-5))
		if hit.Arg > 0 && hit.Arg < int64(used) {
			keep = int(hit.Arg)
		}
		l.anchor.WriteAt(buf[:keep], off) //mspr:walerr deliberately torn injected write; ErrInjected is returned below regardless
		l.disk.ChargeWrite(1, 0)
		return fmt.Errorf("wal: anchor write of %q torn at %d bytes: %w", l.anchor.Name(), keep, failpoint.ErrInjected)
	}
	if _, err := l.anchor.WriteAt(buf, off); err != nil {
		return err
	}
	l.disk.ChargeWrite(len(buf)/simdisk.SectorSize, 0)
	l.anchorSeq = seq
	l.lastAnchor = a
	l.hasAnchor = true
	return nil
}

// ReadAnchor returns the newest valid stored anchor, or ok=false if none
// was ever written. When the newest slot is torn or corrupt but the
// other slot holds a valid (older) anchor, that anchor is returned and
// the fallback is counted; recovery then proceeds from the previous
// checkpoint, which is always safe (the log below it was not yet
// discarded — TruncateHead runs only after the anchor write succeeds,
// and a rotation's anchor rewrite reuses the previous head unchanged).
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) ReadAnchor() (a Anchor, ok bool, err error) {
	l.anchorMu.Lock()
	defer l.anchorMu.Unlock()
	if l.anchor.Size() == 0 {
		return Anchor{}, false, nil
	}
	buf := make([]byte, 2*anchorSlotStride)
	if _, err := l.anchor.ReadAt(buf, 0); err != nil {
		return Anchor{}, false, err
	}
	l.disk.ChargeRead(2 * anchorSlotStride / simdisk.SectorSize)
	var best Anchor
	var bestSeq uint64
	found, damaged := false, false
	for slot := 0; slot < 2; slot++ {
		sb := buf[slot*anchorSlotStride:][:anchorSlotStride]
		if sa, _, seq, sok := parseAnchorSlot(sb); sok {
			if !found || seq > bestSeq {
				best, bestSeq = sa, seq
			}
			found = true
		} else if !allZero(sb) {
			damaged = true // a slot was written but does not validate
		}
	}
	if !found {
		if damaged {
			return Anchor{}, false, fmt.Errorf("wal: no valid anchor slot in %q", l.anchor.Name())
		}
		return Anchor{}, false, nil
	}
	if damaged {
		metrics.Recovery.AnchorFallbacks.Inc()
	}
	l.anchorSeq = bestSeq
	l.lastAnchor = best
	l.hasAnchor = true
	return best, true, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
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
	freed := false
	for {
		l.segMu.RLock()
		var victim *segment
		if len(l.segs) > 1 {
			if s := l.segs[0]; s.end != 0 && s.end <= before {
				victim = s
			}
		}
		l.segMu.RUnlock()
		if victim == nil {
			break
		}
		if _, ok := l.fp().Eval(FPTruncateCrash); ok {
			err := fmt.Errorf("wal: truncation of %q crashed between segment deletions: %w", l.name, failpoint.ErrInjected)
			l.mu.Lock()
			if l.flushErr == nil {
				l.flushErr = err
			}
			l.cond.Broadcast()
			l.mu.Unlock()
			return err
		}
		size := victim.file.Size()
		l.disk.Remove(victim.file.Name())
		l.disk.ChargeWrite(1, 0) // directory metadata update
		l.segMu.Lock()
		if len(l.segs) > 0 && l.segs[0] == victim {
			l.segs = l.segs[1:]
		}
		l.segMu.Unlock()
		freed = true
		metrics.Wal.SegmentsReclaimed.Inc()
		metrics.Wal.SegmentsLive.Add(-1)
		metrics.Wal.LiveLogBytes.Add(-(size - headerSize))
	}
	if freed {
		l.InvalidateCache()
	}
	return nil
}

// SegmentInfo describes one live segment file for observability
// (logdump, tests, the chaos report).
type SegmentInfo struct {
	Index uint64
	Name  string
	Base  LSN   // LSN of the segment's first data byte
	End   LSN   // exclusive sealed end; 0 while the segment is active
	Bytes int64 // current file size, including the one-sector header
}

// Segments returns a snapshot of the live segment table, ascending.
func (l *Log) Segments() []SegmentInfo {
	l.segMu.RLock()
	defer l.segMu.RUnlock()
	out := make([]SegmentInfo, len(l.segs))
	for i, s := range l.segs {
		out[i] = SegmentInfo{s.index, s.file.Name(), s.base, s.end, s.file.Size()}
	}
	return out
}

// Name returns the log's base name on its disk (segment files append a
// numeric suffix to it).
func (l *Log) Name() string { return l.name }

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

// Disk returns the simulated disk backing this log.
func (l *Log) Disk() *simdisk.Disk { return l.disk }
