package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/simdisk"
)

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
	anchorSlotStride = 4 * sectorSize
	// maxDirEntries bounds the segment directory to what a slot holds.
	// 125 live segments means truncation has stalled for an entire
	// checkpoint-interval × 125 of traffic; surfacing the overflow as an
	// error beats silently growing the anchor.
	maxDirEntries = (anchorSlotStride - anchorFixedLen - 4) / anchorEntryLen
)

// anchorSlotLen is the encoded length, before padding, of a slot whose
// directory has n entries.
func anchorSlotLen(n int) int { return anchorFixedLen + n*anchorEntryLen + 4 }

func encodeAnchorSlot(a Anchor, seq uint64, dir []dirEntry) []byte {
	buf := make([]byte, alignUp(int64(anchorSlotLen(len(dir)))))
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
	end := anchorSlotLen(n) - 4
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

// newestSlot picks the valid slot with the highest sequence number out
// of an anchor file image (both slots). damaged reports a slot that was
// written but does not validate.
func newestSlot(img []byte) (a Anchor, dir []dirEntry, seq uint64, found, damaged bool) {
	for slot := 0; slot < 2; slot++ {
		sb := img[slot*anchorSlotStride:][:anchorSlotStride]
		if sa, sdir, sseq, ok := parseAnchorSlot(sb); ok {
			if !found || sseq > seq {
				a, dir, seq = sa, sdir, sseq
			}
			found = true
		} else if !allZero(sb) {
			damaged = true
		}
	}
	return a, dir, seq, found, damaged
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// anchorStore owns the anchor file: which slot is newest, and the last
// durable anchor (rotation re-persists it with a wider directory). Its
// lock is never held across a modelled disk wait: a slot write runs with
// writing set, and a write or rewrite that finds it set waits on cond,
// so two slot writes never interleave.
type anchorStore struct {
	file *simdisk.File
	segs *segStore // set by Open once the segments are mounted

	mu   sync.Mutex //mspr:lock-level 50
	cond *sync.Cond // on mu: a slot write ended
	// writing: a slot write is in flight.
	writing bool //mspr:guarded-by mu
	// seq: sequence number of the newest valid slot.
	seq uint64 //mspr:guarded-by mu
	// last is the newest durable anchor, valid when has is set (an
	// anchor was written or read).
	last Anchor //mspr:guarded-by mu
	has  bool   //mspr:guarded-by mu
}

// readSlots reads the anchor file image: both slots.
func readSlots(f *simdisk.File) ([]byte, error) {
	img := make([]byte, 2*anchorSlotStride)
	_, err := f.ReadAt(img, 0)
	return img, err
}

// openAnchor learns the newest anchor slot of the named log: its
// sequence number (so the first write of this incarnation keeps
// alternating slots) and the last durable anchor, returned with its
// segment directory (nil when there is none). This is a mount-time peek,
// not a modelled I/O; read charges the read.
func openAnchor(disk *simdisk.Disk, name string) (*anchorStore, *Anchor, []dirEntry, error) {
	f := disk.OpenFile(name + ".anchor")
	img, err := readSlots(f)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: reading anchor slot: %w", err)
	}
	a, dir, seq, found, _ := newestSlot(img)
	s := &anchorStore{file: f, seq: seq, last: a, has: found}
	s.cond = sync.NewCond(&s.mu)
	if !found {
		return s, nil, nil, nil
	}
	return s, &a, dir, nil
}

// WriteAnchor durably records the anchor together with the current
// segment directory, charging the slot write. The write goes to the
// slot NOT holding the newest valid anchor, so the previous anchor
// survives until the new one is fully on disk.
//
//mspr:blocking performs (or waits on) disk I/O
func (l *Log) WriteAnchor(a Anchor) error { return l.anchor.write(a) }

func (s *anchorStore) write(a Anchor) error { return s.persist(a, false) }

// rewrite re-persists the last anchor so its segment directory includes
// a segment rotation just added. Before the first checkpoint anchor
// exists there is nothing to rewrite — and writing a zero anchor would
// invent a checkpoint at LSN 0 — so recovery instead accepts every
// contiguous segment of an anchorless log.
func (s *anchorStore) rewrite() error { return s.persist(Anchor{}, true) }

// persist writes a, or on a rewrite the last anchor, to the next slot,
// one slot write at a time and with mu released around it.
func (s *anchorStore) persist(a Anchor, rewrite bool) error {
	s.mu.Lock()
	for s.writing {
		s.cond.Wait()
	}
	if rewrite {
		if !s.has {
			s.mu.Unlock()
			return nil
		}
		a = s.last
	}
	seq := s.seq + 1
	s.writing = true
	s.mu.Unlock()
	err := s.writeSlot(a, seq)
	s.mu.Lock()
	if err == nil {
		s.seq, s.last, s.has = seq, a, true
	}
	s.writing = false
	s.cond.Broadcast()
	s.mu.Unlock()
	return err
}

// writeSlot writes a as slot number seq with the current segment
// directory, charging the write. Only the holder of writing calls it.
func (s *anchorStore) writeSlot(a Anchor, seq uint64) error {
	dir := s.segs.dir()
	if len(dir) > maxDirEntries {
		return fmt.Errorf("wal: %d live segments exceed the anchor directory capacity of %d (truncation stalled?)",
			len(dir), maxDirEntries)
	}
	buf := encodeAnchorSlot(a, seq, dir)
	off := int64(seq%2) * anchorSlotStride
	if hit, ok := s.file.Disk().Failpoints().Eval(FPAnchorCrash); ok {
		// Tear the slot write: persist a prefix long enough to damage the
		// stored sequence number (so the slot cannot masquerade as its
		// old self) but never the whole encoded slot (the CRC stays
		// incomplete). Arg pins the prefix length.
		used := anchorSlotLen(len(dir))
		keep := 5 + int(hit.R%int64(used-5))
		if hit.Arg > 0 && hit.Arg < int64(used) {
			keep = int(hit.Arg)
		}
		s.file.WriteAt(buf[:keep], off) // its own error is moot: ErrInjected is returned below regardless
		s.file.Disk().ChargeWrite(1, 0)
		return fmt.Errorf("wal: anchor write of %q torn at %d bytes: %w", s.file.Name(), keep, failpoint.ErrInjected)
	}
	return writeSectors(s.file, buf, off, 0, true)
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
func (l *Log) ReadAnchor() (a Anchor, ok bool, err error) { return l.anchor.read() }

// read books its charge under mu and waits for it after releasing mu.
func (s *anchorStore) read() (Anchor, bool, error) {
	s.mu.Lock()
	if s.file.Size() == 0 {
		s.mu.Unlock()
		return Anchor{}, false, nil
	}
	img, err := readSlots(s.file)
	if err != nil {
		s.mu.Unlock()
		return Anchor{}, false, err
	}
	defer s.file.Disk().StartRead(2 * anchorSlotStride / sectorSize)()
	defer s.mu.Unlock()
	a, _, seq, found, damaged := newestSlot(img)
	if !found {
		if damaged {
			return Anchor{}, false, fmt.Errorf("wal: no valid anchor slot in %q", s.file.Name())
		}
		return Anchor{}, false, nil
	}
	if damaged {
		metrics.Recovery.AnchorFallbacks.Inc()
	}
	s.seq, s.last, s.has = seq, a, true
	return a, true, nil
}
