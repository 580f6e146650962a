// Package simdisk simulates the dedicated log disks used in the paper's
// evaluation (SIGMOD 2007, §5.1-§5.2).
//
// The paper's response-time analysis is driven entirely by a simple disk
// latency formula for flushing n sectors on a 7200 RPM disk with 63
// sectors per track:
//
//	TFn = rot/2 + n/63·rot + n/63·trackSeek
//
// plus an occasional random seek caused by operating-system interference
// (the paper estimates TF2 ≈ 4.5 ms + 10.5 ms/3 = 8 ms). This package
// charges exactly that formula, scaled by a configurable TimeScale so that
// experiments preserving every latency ratio can run quickly.
//
// A Disk has one head: its I/O charges form a FIFO queue, so two
// concurrent flushes on the same disk finish one after the other, while
// flushes on different Disks proceed in parallel — matching the paper's
// observation that the local flushes of a distributed log flush run in
// parallel "unless the physical logs of MSPs in the service domain share
// a disk controller". A charge books its service time behind the last
// queued one under the disk's lock and sleeps until then without it; a
// reader may book a read and wait for it later (StartRead).
//
// Durability semantics: data written to a File survives a crash; anything
// a client of this package buffers in its own memory does not. The WAL and
// position-stream layers build their volatile buffers on top of this rule.
package simdisk

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mspr/internal/failpoint"
	"mspr/internal/simtime"
)

// SectorSize is the disk sector size in bytes. Log blocks are aligned to
// sector boundaries, as in the paper (§5.2).
const SectorSize = 512

// Model holds the physical parameters of a simulated disk. The zero value
// is not useful; use DefaultModel (the paper's server disks) as a base.
type Model struct {
	// RPM is the rotational speed (7200 in the paper).
	RPM int
	// SectorsPerTrack is the number of sectors per track (63 in the paper).
	SectorsPerTrack int
	// TrackSeekWrite and TrackSeekRead are track-to-track seek times
	// (1.2 ms / 1.0 ms in the paper).
	TrackSeekWrite time.Duration
	TrackSeekRead  time.Duration
	// AvgSeekWrite and AvgSeekRead are average random-seek times
	// (10.5 ms / 9.5 ms in the paper).
	AvgSeekWrite time.Duration
	AvgSeekRead  time.Duration
	// OSSeekFraction is the fraction of flushes that incur a random seek
	// because the operating system also uses the disk. The paper's crude
	// estimate charges AvgSeek/3 per flush, i.e. a fraction of 1/3.
	OSSeekFraction float64
	// TimeScale multiplies every charged latency. 1.0 reproduces the
	// paper's wall-clock model; small values (e.g. 0.02) preserve all
	// ratios while letting experiments finish quickly; 0 disables
	// sleeping entirely (useful in unit tests).
	TimeScale float64
}

// DefaultModel returns the disk model of the paper's server computers
// (Fig. 13) at the given time scale.
func DefaultModel(timeScale float64) Model {
	return Model{
		RPM:             7200,
		SectorsPerTrack: 63,
		TrackSeekWrite:  1200 * time.Microsecond,
		TrackSeekRead:   1000 * time.Microsecond,
		AvgSeekWrite:    10500 * time.Microsecond,
		AvgSeekRead:     9500 * time.Microsecond,
		OSSeekFraction:  1.0 / 3.0,
		TimeScale:       timeScale,
	}
}

// rotation returns the time of one full disk rotation.
func (m Model) rotation() time.Duration {
	if m.RPM == 0 {
		return 0
	}
	return time.Duration(60_000_000_000 / int64(m.RPM))
}

// WriteTime returns the model (unscaled) time to flush n sectors:
// half a rotation of latency, plus transfer and track-to-track seeks
// proportional to n, plus the expected OS-interference seek.
func (m Model) WriteTime(n int) time.Duration {
	if n <= 0 || m.SectorsPerTrack == 0 {
		return 0
	}
	rot := m.rotation()
	d := rot / 2
	d += time.Duration(n) * (rot + m.TrackSeekWrite) / time.Duration(m.SectorsPerTrack)
	d += time.Duration(float64(m.AvgSeekWrite) * m.OSSeekFraction)
	return d
}

// ReadTime returns the model (unscaled) time to read n sectors. Recovery
// reads are mostly sequential (§5.4), so no OS-interference seek is
// charged; the formula matches the paper's 1 MB-log-read estimate.
func (m Model) ReadTime(n int) time.Duration {
	if n <= 0 || m.SectorsPerTrack == 0 {
		return 0
	}
	rot := m.rotation()
	d := rot / 2
	d += time.Duration(n) * (rot + m.TrackSeekRead) / time.Duration(m.SectorsPerTrack)
	return d
}

// Stats accumulates the I/O activity of a Disk. All counters are totals
// since the Disk was created; times are in model (unscaled) duration.
type Stats struct {
	Writes      int64         // number of write charges (flushes)
	SectorsOut  int64         // sectors written
	WastedBytes int64         // bytes written that carry no new payload (padding, rewritten prefixes)
	Reads       int64         // number of read charges
	SectorsIn   int64         // sectors read
	WriteTime   time.Duration // model time spent writing
	ReadTime    time.Duration // model time spent reading
}

// ErrTransientWrite is the error injected by the FPWriteError failpoint:
// a write that failed without destroying anything and may be retried.
var ErrTransientWrite = errors.New("simdisk: transient write error (injected)")

// Failpoint names evaluated by File.WriteAt. Each name is also evaluated
// with a ":<file name>" suffix first, so faults can target a single file
// (e.g. "simdisk.write.torn:msp1.log"). See package failpoint.
const (
	// FPWriteTorn persists only a prefix of the write (a torn write, as a
	// power failure mid-write leaves) and reports an injected crash. The
	// prefix length is derived from the hit's seeded random value.
	FPWriteTorn = "simdisk.write.torn"
	// FPWriteCorrupt persists the write with a single flipped bit (a
	// crash-time scribble) and reports an injected crash.
	FPWriteCorrupt = "simdisk.write.corrupt"
	// FPWriteError fails the write with ErrTransientWrite, persisting
	// nothing; the caller may retry.
	FPWriteError = "simdisk.write.error"
)

// Disk is a simulated disk: a latency domain plus a set of named Files.
// Its I/O charges queue on one head, first come, first served.
type Disk struct {
	model Model

	mu    sync.Mutex // guards files, stats and free
	files map[string]*File
	stats Stats
	// free is when the head finishes the last queued charge, on the wall
	// clock that simtime.Sleep waits on.
	free time.Time
	// fp is read for every scanned and every replayed log record (each
	// evaluates a crash point), so it is an atomic load, not a lock.
	fp atomic.Pointer[failpoint.Registry]
}

// NewDisk creates an empty simulated disk with the given model.
func NewDisk(model Model) *Disk {
	return &Disk{model: model, files: make(map[string]*File)}
}

// Model returns the disk's latency model.
func (d *Disk) Model() Model { return d.model }

// SetFailpoints attaches a fault-injection registry to the disk. All
// layers stacked on this disk (WAL, journalled stores) share it. A nil
// registry disables injection entirely.
func (d *Disk) SetFailpoints(r *failpoint.Registry) { d.fp.Store(r) }

// Failpoints returns the disk's fault-injection registry (nil when fault
// injection is off — safe to Eval either way).
func (d *Disk) Failpoints() *failpoint.Registry { return d.fp.Load() }

// Stats returns a snapshot of the disk's accumulated I/O statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// OpenFile returns the named File, creating it empty if absent. Files are
// durable: their contents survive process "crashes" (which only discard
// state clients keep outside this package).
func (d *Disk) OpenFile(name string) *File {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		f = &File{disk: d, name: name}
		d.files[name] = f
	}
	return f
}

// Remove deletes the named file from the disk and reports whether it
// existed. Handles obtained earlier keep their data in memory but are
// detached: a later OpenFile of the same name returns a fresh empty
// file. Removal is durable immediately (the directory update rides on
// the caller's next charged write).
func (d *Disk) Remove(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return false
	}
	delete(d.files, name)
	return true
}

// List returns the names of all files starting with prefix, sorted.
// A mount-time enumeration, not a modelled I/O.
func (d *Disk) List(prefix string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var names []string
	for name := range d.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// ChargeWrite blocks for the (scaled) time to flush n sectors and records
// the activity. wastedBytes counts the bytes of the n sectors that carry no
// new payload: padding, and a log's partial sector rewritten ahead of its
// new records (together the paper's "half a sector wasted on every
// flush").
func (d *Disk) ChargeWrite(n, wastedBytes int) {
	if n <= 0 {
		return
	}
	t := d.model.WriteTime(n)
	d.mu.Lock()
	d.stats.Writes++
	d.stats.SectorsOut += int64(n)
	d.stats.WastedBytes += int64(wastedBytes)
	d.stats.WriteTime += t
	done := d.queue(t)
	d.mu.Unlock()
	sleepUntil(done)
}

// ChargeRead blocks for the (scaled) time to read n sectors and records
// the activity.
func (d *Disk) ChargeRead(n int) { d.StartRead(n)() }

// StartRead books and records the read of n sectors as ChargeRead does,
// but returns at once: wait blocks until the read is done. A reader that
// books its next read before waiting for the last keeps the head busy.
func (d *Disk) StartRead(n int) (wait func()) {
	if n <= 0 {
		return func() {}
	}
	t := d.model.ReadTime(n)
	d.mu.Lock()
	d.stats.Reads++
	d.stats.SectorsIn += int64(n)
	d.stats.ReadTime += t
	done := d.queue(t)
	d.mu.Unlock()
	return func() { sleepUntil(done) }
}

// queue books the scaled model time t on the head behind every charge
// already queued and returns when the caller's own finishes (zero when
// nothing is waited for). Called with mu held.
func (d *Disk) queue(t time.Duration) time.Time {
	scaled := time.Duration(float64(t) * d.model.TimeScale)
	if scaled <= 0 {
		return time.Time{}
	}
	now := time.Now() //mspr:wallclock the queue runs on the clock simtime.Sleep waits on; a stepped clock would stack every charge
	if d.free.Before(now) {
		d.free = now
	}
	d.free = d.free.Add(scaled)
	return d.free
}

// sleepUntil waits for a charge queue booked to finish at done; the zero
// time has long passed.
func sleepUntil(done time.Time) {
	simtime.Sleep(time.Until(done)) //mspr:wallclock the same clock queue booked done on
}

// File is a named durable byte region on a Disk. The zero value is not
// usable; obtain Files from Disk.OpenFile. File methods do not charge
// latency themselves — callers charge the Disk according to the I/O they
// model (e.g. a WAL flush of several buffered records is one block write).
type File struct {
	disk *Disk
	name string

	mu   sync.RWMutex
	data []byte
}

// Name returns the file's name on its disk.
func (f *File) Name() string { return f.name }

// Size returns the current length of the file in bytes.
func (f *File) Size() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data))
}

// evalWriteFault checks the disk's write failpoints for this file,
// trying the file-targeted name ("<mode>:<file>"), then the family
// name ("<mode>:<base>" for a segment file "<base>.NNNNNN"), then the
// generic one. It returns the first armed mode that fires.
func (f *File) evalWriteFault() (mode string, hit failpoint.Hit, ok bool) {
	fp := f.disk.Failpoints()
	if fp == nil {
		return "", failpoint.Hit{}, false
	}
	family := familyName(f.name)
	for _, m := range [...]string{FPWriteError, FPWriteTorn, FPWriteCorrupt} {
		if h, fired := fp.Eval(m + ":" + f.name); fired {
			return m, h, true
		}
		if family != "" {
			if h, fired := fp.Eval(m + ":" + family); fired {
				return m, h, true
			}
		}
		if h, fired := fp.Eval(m); fired {
			return m, h, true
		}
	}
	return "", failpoint.Hit{}, false
}

// familyName strips a trailing ".NNN…" all-digit segment suffix, so a
// fault targeting "msp1.log" also hits "msp1.log.000003". Returns ""
// when the name has no such suffix.
func familyName(name string) string {
	i := strings.LastIndexByte(name, '.')
	if i <= 0 || i == len(name)-1 {
		return ""
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return ""
		}
	}
	return name[:i]
}

// WriteAt writes p at offset off, growing the file (zero-filled) as
// needed. The write is durable when WriteAt returns.
//
// Fault injection: when the disk's registry arms a write failpoint for
// this file, the write is failed transiently (nothing persisted), torn
// (only a seeded-random prefix persisted) or corrupted (one flipped
// bit persisted). Torn and corrupt writes return failpoint.ErrInjected:
// the simulated process is considered crashed mid-write and only the
// damaged data survives into the next incarnation.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("simdisk: negative offset %d writing %q", off, f.name)
	}
	var injected error
	if mode, hit, ok := f.evalWriteFault(); ok {
		switch mode {
		case FPWriteError:
			return 0, fmt.Errorf("simdisk: writing %q at %d: %w", f.name, off, ErrTransientWrite)
		case FPWriteTorn:
			keep := tornLength(len(p), hit)
			p = p[:keep]
			injected = fmt.Errorf("simdisk: torn write of %q at %d (%d bytes persisted): %w",
				f.name, off, keep, failpoint.ErrInjected)
		case FPWriteCorrupt:
			if len(p) > 0 {
				damaged := append([]byte(nil), p...)
				bit := hit.R % int64(len(damaged)*8)
				damaged[bit/8] ^= 1 << (bit % 8)
				p = damaged
			}
			injected = fmt.Errorf("simdisk: corrupt write of %q at %d: %w",
				f.name, off, failpoint.ErrInjected)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(f.data)) {
		if end > int64(cap(f.data)) {
			// Grow geometrically: appends are the common case (logs,
			// journals) and a linear reallocation per write would make
			// file growth quadratic.
			newCap := int64(cap(f.data)) * 2
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, f.data)
			f.data = grown
		} else {
			f.data = f.data[:end]
		}
	}
	copy(f.data[off:end], p)
	return len(p), injected
}

// tornLength picks how many bytes of an n-byte write survive a torn
// write: at least 1 and at most n-1 when possible, preferring a cut
// inside the final sector so the tear is visible to CRC checks. The
// hit's Arg, when positive, pins the length exactly (clamped to n).
func tornLength(n int, hit failpoint.Hit) int {
	if n <= 1 {
		return 0
	}
	if hit.Arg > 0 {
		if hit.Arg >= int64(n) {
			return n - 1
		}
		return int(hit.Arg)
	}
	return 1 + int(hit.R%int64(n-1))
}

// ReadAt reads into p from offset off. Reads past the end of the file
// return zero bytes for that region and no error, mimicking a sparse
// preallocated log.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("simdisk: negative offset %d reading %q", off, f.name)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	if off < int64(len(f.data)) {
		n = copy(p, f.data[off:])
	}
	// Only what the copy does not cover is cleared: whatever lies past
	// the end of the file.
	clear(p[n:])
	return n, nil
}

// Truncate sets the file's length, discarding data beyond size.
func (f *File) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("simdisk: negative size %d truncating %q", size, f.name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if size <= int64(len(f.data)) {
		// Zero what is cut off: a later write past the new end extends the
		// file into this capacity, and the gap must read as zeros there,
		// as on a real file, not as the discarded bytes.
		clear(f.data[size:])
		f.data = f.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, f.data)
		f.data = grown
	}
	return nil
}

// Disk returns the disk this file lives on.
func (f *File) Disk() *Disk { return f.disk }
