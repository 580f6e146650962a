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

	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/simdisk"
)

// headerSize is the reserved header of every segment file (one sector).
// The first segment's data starts at LSN headerSize, and within any
// segment the file offset of LSN x is x - base + headerSize.
const headerSize = sectorSize

// Segment header layout (one sector at file offset 0):
// [magic:8][index:u64][base:u64][crc32 over the first 24 bytes].
var segMagic = [8]byte{'M', 'S', 'P', 'R', 'S', 'E', 'G', '1'}

const segHeaderLen = 8 + 8 + 8 + 4

// segment is one physical segment file covering the LSN range
// [base, end); end is 0 while the segment is active (still appended to).
// The table hands out copies: the file handle is concurrency-safe and
// never replaced, and end only transitions 0 → sealed.
type segment struct {
	index uint64
	base  LSN
	end   LSN
	file  *simdisk.File
}

// covers reports whether the segment holds logical offset off.
func (s segment) covers(off int64) bool {
	return LSN(off) >= s.base && (s.end == 0 || LSN(off) < s.end)
}

// fileOff is the offset of logical offset lsn within the segment's file.
func (s segment) fileOff(lsn int64) int64 { return lsn - int64(s.base) + headerSize }

// alignUp rounds n up to a whole number of sectors.
func alignUp(n int64) int64 {
	return (n + sectorSize - 1) / sectorSize * sectorSize
}

// boundary returns the first sector boundary of the segment's file at or
// after logical offset lsn. Sector alignment is a property of file
// offsets, not of LSNs: a rotation starts the next segment at its first
// record, wherever in a sector the sealed one ended.
func (s segment) boundary(lsn int64) int64 {
	return lsn + alignUp(s.fileOff(lsn)) - s.fileOff(lsn)
}

// dirEntry is one anchor segment-directory entry.
type dirEntry struct {
	index uint64
	base  LSN
}

// segStore is the segment table of one log and, with anchorStore, the
// only code that reads, writes, creates or removes files on the disk.
type segStore struct {
	disk *simdisk.Disk
	name string

	mu sync.RWMutex //mspr:lock-level 80
	// segs is ascending by index; the last one is active.
	segs []segment //mspr:guarded-by mu
}

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

// dataEnd is where a segment's file ends, as an LSN, rounded up to a
// sector boundary (every write to it ends on one; a repaired tail is cut
// mid-sector). A sealed segment's records end within the last sector
// below it.
func (s segment) dataEnd() LSN { return s.base + LSN(alignUp(s.file.Size()-headerSize)) }

// openSegments enumerates, validates and reconciles the named log's
// segment files against the newest anchor and its segment directory
// (both nil when no anchor exists).
func openSegments(disk *simdisk.Disk, name string, dir []dirEntry, anchor *Anchor) (*segStore, error) {
	var segs []segment
	var broken []string // files with a torn or invalid header
	for _, fn := range disk.List(name + ".") {
		idx, ok := parseSegIndex(name, fn)
		if !ok {
			continue // the anchor file, or unrelated
		}
		f := disk.OpenFile(fn)
		hIdx, base, ok := readSegHeader(f)
		if !ok || hIdx != idx {
			broken = append(broken, fn)
			continue
		}
		segs = append(segs, segment{index: idx, base: base, file: f})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })

	if len(segs) == 0 {
		if len(broken) > 0 {
			return nil, fmt.Errorf("wal: %q has no valid segment (torn: %v)", name, broken)
		}
		if anchor != nil {
			return nil, fmt.Errorf("wal: %q has an anchor but no segment files", name)
		}
		seg, err := createSegment(disk, name, 1, headerSize, false)
		if err != nil {
			return nil, err
		}
		return &segStore{disk: disk, name: name, segs: []segment{seg}}, nil
	}

	// A broken header is tolerable only on the file a crashed rotation
	// was creating (index one past the newest valid segment): delete it;
	// the next rotation recreates it. Anywhere else it is corruption.
	maxIdx := segs[len(segs)-1].index
	for _, fn := range broken {
		idx, _ := parseSegIndex(name, fn)
		if idx != maxIdx+1 {
			return nil, fmt.Errorf("wal: segment %q has a corrupt header", fn)
		}
		disk.Remove(fn) // torn segment create; never counted live
	}

	// Contiguity: each segment must start where its predecessor's records
	// end, with no index gaps. The file size only places that end within
	// the predecessor's last written sector: a packed log rotates at its
	// first new record, leaving the sealed segment's last sector part
	// padding.
	for i := 1; i < len(segs); i++ {
		prev, s := &segs[i-1], segs[i]
		if s.index != prev.index+1 {
			return nil, fmt.Errorf("wal: %q segment %06d missing (found %06d then %06d)",
				name, prev.index+1, prev.index, s.index)
		}
		if end := prev.dataEnd(); s.base > end || s.base <= end-sectorSize {
			return nil, fmt.Errorf("wal: segment %q starts at LSN %d, want one in (%d, %d] (the sealed predecessor's last written sector)",
				s.file.Name(), s.base, end-sectorSize, end)
		}
		prev.end = s.base
	}

	if anchor != nil && len(dir) > 0 {
		byIdx := make(map[uint64]segment, len(segs))
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
				if entEnd > anchor.Head {
					return nil, fmt.Errorf("wal: %q refuses to open: segment %06d holds records at or after the anchor head %d but is missing",
						name, e.index, anchor.Head)
				}
				continue // wholly below the head: reclaimed (possibly by an interrupted truncation)
			}
			if s.base != e.base {
				return nil, fmt.Errorf("wal: segment %q starts at LSN %d but the anchor directory says %d",
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
				return nil, fmt.Errorf("wal: segment %q is not in the anchor directory", s.file.Name())
			}
		}
	}
	return &segStore{disk: disk, name: name, segs: segs}, nil
}

// createSegment creates segment file idx with its header durable.
// charge selects whether the header write is charged to the disk
// (rotation) or not (mount-time creation of a fresh log).
func createSegment(disk *simdisk.Disk, name string, idx uint64, base LSN, charge bool) (segment, error) {
	fn := segFileName(name, idx)
	if disk.OpenFile(fn).Size() != 0 {
		// Leftover from an earlier crashed rotation (never adopted):
		// recreate from scratch.
		disk.Remove(fn)
	}
	f := disk.OpenFile(fn)
	if err := writeSectors(f, encodeSegHeader(idx, base), 0, 0, charge); err != nil {
		return segment{}, fmt.Errorf("wal: writing header of %q: %w", fn, err)
	}
	return segment{index: idx, base: base, file: f}, nil
}

// fp returns the fault-injection registry shared through the backing
// disk; nil (injection off) is safe to Eval.
func (s *segStore) fp() *failpoint.Registry { return s.disk.Failpoints() }

// active returns the newest (appendable) segment.
func (s *segStore) active() segment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segs[len(s.segs)-1]
}

// at returns the segment covering the logical offset off.
func (s *segStore) at(off int64) (segment, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := len(s.segs) - 1; i >= 0; i-- {
		if seg := s.segs[i]; seg.covers(off) {
			return seg, true
		}
	}
	return segment{}, false
}

// createNext creates the segment file after the active one, starting at
// base, without publishing it (a crash here leaves an orphan file).
func (s *segStore) createNext(base LSN) (segment, error) {
	return createSegment(s.disk, s.name, s.active().index+1, base, true)
}

// sealAndAdd seals the active segment at next's base and makes next the
// active segment.
func (s *segStore) sealAndAdd(next segment) {
	s.mu.Lock()
	s.segs[len(s.segs)-1].end = next.base
	s.segs = append(s.segs, next)
	s.mu.Unlock()
}

// dir returns the segment directory an anchor slot records.
func (s *segStore) dir() []dirEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dir := make([]dirEntry, len(s.segs))
	for i, seg := range s.segs {
		dir[i] = dirEntry{seg.index, seg.base}
	}
	return dir
}

// writeSectors is the log's one device write, for flush blocks, segment
// headers and anchor slots alike: it writes b (whole sectors) at file
// offset off of f, retrying a transient device error twice, and charges
// it unless charge is false. waste is the charged bytes that are not new
// data: a flush block's rewritten partial sector and its zero pad.
func writeSectors(f *simdisk.File, b []byte, off int64, waste int, charge bool) error {
	for attempt := 0; ; attempt++ {
		_, err := f.WriteAt(b, off)
		if err == nil {
			break
		}
		if attempt >= 2 || !errors.Is(err, simdisk.ErrTransientWrite) {
			return err
		}
		metrics.Recovery.TransientWriteRetries.Inc()
	}
	if charge {
		f.Disk().ChargeWrite(len(b)/sectorSize, waste)
	}
	return nil
}

// readBlock reads up to n bytes at file offset off of seg, clamped to a
// sealed segment's data end so bytes past the seal never masquerade as
// zeros of this segment, and books the read on the disk's head: the bytes
// are not to be handed on before wait returns.
func (s *segStore) readBlock(seg segment, off, n int64) (buf []byte, wait func(), err error) {
	if seg.end != 0 {
		if fileEnd := seg.fileOff(int64(seg.end)); off+n > fileEnd {
			n = fileEnd - off
		}
	}
	buf = make([]byte, n)
	if _, err := seg.file.ReadAt(buf, off); err != nil {
		return nil, nil, err
	}
	return buf, s.disk.StartRead(int((n + sectorSize - 1) / sectorSize)), nil
}

// truncateTail cuts seg's file at logical offset lsn; the gap up to the
// next sector boundary then reads as zeros, i.e. padding. It is a
// best-effort repair: a failed truncate leaves the torn tail for the next
// scan to re-detect.
func (s *segStore) truncateTail(seg segment, lsn int64) {
	seg.file.Truncate(seg.fileOff(lsn))
}

// dropBelow deletes every sealed segment wholly below the head before,
// oldest first, and reports whether it freed any. FPTruncateCrash fires
// between deletions.
func (s *segStore) dropBelow(before LSN) (freed bool, err error) {
	for {
		s.mu.RLock()
		victim, ok := s.segs[0], len(s.segs) > 1
		s.mu.RUnlock()
		if !ok || victim.end == 0 || victim.end > before {
			return freed, nil
		}
		if _, hit := s.fp().Eval(FPTruncateCrash); hit {
			return freed, fmt.Errorf("wal: truncation of %q crashed between segment deletions: %w", s.name, failpoint.ErrInjected)
		}
		s.disk.Remove(victim.file.Name())
		s.disk.ChargeWrite(1, 0) // directory metadata update
		s.mu.Lock()
		if s.segs[0].index == victim.index {
			s.segs = s.segs[1:]
		}
		s.mu.Unlock()
		freed = true
		metrics.Wal.SegmentsReclaimed.Inc()
	}
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
func (l *Log) Segments() []SegmentInfo { return l.segs.infos() }

func (s *segStore) infos() []SegmentInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SegmentInfo, len(s.segs))
	for i, seg := range s.segs {
		out[i] = SegmentInfo{seg.index, seg.file.Name(), seg.base, seg.end, seg.file.Size()}
	}
	return out
}
