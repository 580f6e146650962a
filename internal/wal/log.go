// Package wal implements the single physical log that every MSP shares
// among all of its sessions and shared variables (§1.3, §3).
//
// The log is an append-only sequence of typed records identified by their
// LSN (byte offset). Appends go to a volatile buffer; a flush writes the
// whole buffer as one sector-aligned log block, so "flush up to LSN n" may
// make more than n durable — which is always safe. The log is packed: a
// block starts with the partial sector the last flush ended in, rewriting
// its durable bytes identically, and the next append continues right after
// the last record. The disk still writes whole sectors, so on average half
// a sector is wasted per flush (§5.2) — the rewritten prefix plus the zero
// pad, charged to the simulated disk and accounted in its statistics — but
// the log on disk, and the recovery scan that reads it, holds no padding.
//
// Physically the log is a sequence of segment files ("name.000001",
// "name.000002", …), each holding a contiguous LSN range after a
// one-sector header. A flush that would overfill the active segment
// first rotates: it creates the next segment file starting at the block's
// first new record, seals the current one, and re-persists the anchor so
// the durable segment directory names every live segment.
// Checkpoint-anchored truncation (TruncateHead) physically deletes whole
// segments strictly below the anchor head, keeping disk usage and
// recovery time flat under sustained traffic. LSNs remain global byte
// offsets, so rotation is invisible to every layer above.
//
// Flush is group commit (§5.5): concurrent flushes share one write, led
// by the first caller that finds no write in flight, while the others
// wait for it. With a non-zero BatchTimeout a loaded log holds that
// window open before the write, giving more requests the chance to be
// satisfied by a single larger write; a lone flush on an idle log writes
// at once.
//
// Crash semantics follow the paper exactly: a crash loses the volatile
// buffer; only flushed records survive. Simulated crashes discard the Log
// object and re-Open the same disk files, then scan to find the largest
// persistent LSN (the recovered state number broadcast in §4.3).
//
// # Layers and lock order
//
// The package is five layers, one file each; every layer owns its state
// and its lock and calls only the layers listed after it, and the
// declared lock ranks (lock-level directives, checked by mspr-vet's
// lockorder) only ever nest a lock under lower ranks:
//
//   - Log, the group committer (commit.go): the volatile buffer, the
//     frontiers, group commit, rotation as a sequence of segment-store
//     and anchor calls. mu (70) guards the buffer and the flushing flag
//     that names the one flush leader; it is never held across a write
//     or the batch window, and waiters sleep on its condvar.
//   - anchorStore (anchor.go): the two slots and their codec; mu (50)
//     guards the slot bookkeeping and the writing flag that lets one slot
//     write run at a time, never a write or a read's wait.
//   - reader (reader.go): the cursor — frameAt, the scan, one cached
//     read-ahead block — behind mu (60) for point reads, private and fed by
//     a read-ahead producer for a Scan. Log's read methods sit beside it.
//   - segStore (segstore.go): the segment table and header codec;
//     mu (80). With anchorStore, the only code that touches simdisk
//     files or charges the disk.
//   - frame codec (frame.go): pure functions.
package wal

import (
	"errors"
	"time"
)

// LSN is a log sequence number: the byte offset of a record in the
// logical log, spanning every segment file. LSN 0 is never a valid
// record (the first segment's header occupies the offsets below
// headerSize), so the zero value safely means "none".
type LSN int64

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

// ErrClosed is returned by Append and Flush on a log that was closed —
// which is how a simulated crash takes the log away from its process.
var ErrClosed = errors.New("wal: log closed")

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
	// BatchTimeout, if non-zero, is the batch window (model time) a flush
	// holds open before its write when the log is loaded — more than one
	// flush waiting, or flushes arrived during the last write — so that
	// several requests share one disk write (§5.5). A lone flush on an
	// idle log never waits for it. Concurrent flushes share a write even
	// at zero. The paper's experiments use 8 ms, roughly one log-write
	// time.
	BatchTimeout time.Duration
	// SegmentSize is the data capacity (bytes, excluding the one-sector
	// header) of one segment file. A flush that would exceed it rotates
	// to a new segment first; TruncateHead physically deletes whole
	// segments below the head. The default is 4 MB. A single flush
	// block larger than SegmentSize still fits (a segment holds at
	// least one block).
	SegmentSize int64
}
