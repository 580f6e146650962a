// Package dv implements the dependency-tracking machinery of optimistic
// message logging as used by the paper (§3.1): state identifiers, per-
// session dependency vectors, and each MSP's knowledge of its peers'
// recovered state numbers.
//
// A process's state identifier is (epoch, state number); its state number
// is the LSN of its most recent log record and its epoch number identifies
// a failure-free period, incremented after each crash recovery. A
// dependency vector (DV) maps each process the owner transitively depends
// on to a state identifier, and is merged item-wise (maximization) when a
// message or shared-variable value is received.
//
// Orphan detection: after MSP p recovers from a crash that ended its epoch
// e, it broadcasts the recovered state number r_e — the largest LSN that
// survived on disk. Any dependency on (p, epoch e, LSN n) with n > r_e is
// an orphan: it reflects state p can no longer reconstruct. Knowledge is
// kept per epoch because a later epoch reuses LSNs beyond r_e: a
// dependency (e=1, n) with n > r_1 is an orphan even if a subsequent
// epoch's recovered state number exceeds n (the Fig. 11 multi-crash
// scenarios rely on this distinction).
package dv

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// ProcessID identifies an MSP (a crash unit).
type ProcessID string

// StateID identifies a point in a process's execution: the epoch (failure-
// free period) and the LSN of the process's most recent log record within
// that epoch.
type StateID struct {
	Epoch uint32
	LSN   int64
}

// Less reports whether s precedes t: an earlier epoch always precedes a
// later one; within an epoch, a smaller LSN precedes a larger one.
func (s StateID) Less(t StateID) bool {
	if s.Epoch != t.Epoch {
		return s.Epoch < t.Epoch
	}
	return s.LSN < t.LSN
}

// Max returns the later of s and t.
func (s StateID) Max(t StateID) StateID {
	if s.Less(t) {
		return t
	}
	return s
}

func (s StateID) String() string {
	return fmt.Sprintf("%d:%d", s.Epoch, s.LSN)
}

// Entry names one dependency slot of a vector: a process and one of its
// epochs. Dependencies are kept per (process, epoch), not per process: a
// state of a later epoch does not transitively include an earlier epoch's
// states beyond that crash's recovered state number, so collapsing a
// vector to one entry per process could mask an orphan dependency behind
// a newer, unrelated epoch (e.g. a shared value written before a peer's
// crash, read after the restarted peer has already been heard from).
type Entry struct {
	Process ProcessID
	Epoch   uint32
}

// Vector is a dependency vector: for each (process, epoch) the owner
// transitively depends on, the largest LSN depended upon. The zero value
// (nil) is an empty vector. Vector is not safe for concurrent use;
// sessions and shared variables guard their vectors with their own locks.
type Vector map[Entry]int64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	c := make(Vector, len(v))
	for e, lsn := range v {
		c[e] = lsn
	}
	return c
}

// CloneWith returns an independent copy of v with the dependency e set to
// at least lsn. It is Clone followed by Set, but sizes the copy for the
// extra entry up front so the hot path (a session's vector plus its own
// current state) costs a single allocation.
func (v Vector) CloneWith(e Entry, lsn int64) Vector {
	c := make(Vector, len(v)+1)
	for k, x := range v {
		c[k] = x
	}
	if cur, ok := c[e]; !ok || cur < lsn {
		c[e] = lsn
	}
	return c
}

// Merge folds other into v by item-wise maximization and returns the
// (possibly newly allocated) result. The receiver is modified in place
// when non-nil.
func (v Vector) Merge(other Vector) Vector {
	if len(other) == 0 {
		return v
	}
	if v == nil {
		v = make(Vector, len(other))
	}
	for e, lsn := range other {
		if cur, ok := v[e]; !ok || cur < lsn {
			v[e] = lsn
		}
	}
	return v
}

// Set records the dependency on p at state s, keeping the larger of s.LSN
// and any existing entry for that epoch, and returns the (possibly newly
// allocated) vector.
func (v Vector) Set(p ProcessID, s StateID) Vector {
	if v == nil {
		v = make(Vector, 1)
	}
	e := Entry{Process: p, Epoch: s.Epoch}
	if cur, ok := v[e]; !ok || cur < s.LSN {
		v[e] = s.LSN
	}
	return v
}

// Equal reports whether v and other contain exactly the same entries.
func (v Vector) Equal(other Vector) bool {
	if len(v) != len(other) {
		return false
	}
	for e, lsn := range v {
		if o, ok := other[e]; !ok || o != lsn {
			return false
		}
	}
	return true
}

// sorted returns v's entries ordered by process, then epoch.
func (v Vector) sorted() []Entry {
	es := make([]Entry, 0, len(v))
	for e := range v {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Process, b.Process), cmp.Compare(a.Epoch, b.Epoch))
	})
	return es
}

// String renders the vector deterministically, e.g. "[MSP1:1:10 MSP2:1:20]".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range v.sorted() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d:%d", e.Process, e.Epoch, v[e])
	}
	b.WriteByte(']')
	return b.String()
}

// AppendBinary encodes v onto buf in a deterministic, self-delimiting
// format and returns the extended buffer.
func (v Vector) AppendBinary(buf []byte) []byte {
	es := v.sorted()
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	for _, e := range es {
		buf = binary.AppendUvarint(buf, uint64(len(e.Process)))
		buf = append(buf, e.Process...)
		buf = binary.AppendUvarint(buf, uint64(e.Epoch))
		buf = binary.AppendVarint(buf, v[e])
	}
	return buf
}

// DecodeVector decodes a vector produced by AppendBinary from the front of
// buf, returning the vector and the remaining bytes.
func DecodeVector(buf []byte) (Vector, []byte, error) {
	n, k := binary.Uvarint(buf)
	// Every entry takes at least three bytes, so a longer count is
	// corrupt and must not size the map.
	if k <= 0 || n > uint64(len(buf)-k)/3 {
		return nil, nil, fmt.Errorf("dv: bad vector length")
	}
	buf = buf[k:]
	var v Vector
	if n > 0 {
		v = make(Vector, n)
	}
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(buf)
		if k <= 0 || uint64(len(buf)-k) < l {
			return nil, nil, fmt.Errorf("dv: bad process id")
		}
		id := ProcessID(buf[k : k+int(l)])
		buf = buf[k+int(l):]
		e, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, nil, fmt.Errorf("dv: bad epoch")
		}
		buf = buf[k:]
		lsn, k := binary.Varint(buf)
		if k <= 0 {
			return nil, nil, fmt.Errorf("dv: bad lsn")
		}
		buf = buf[k:]
		ent := Entry{Process: id, Epoch: uint32(e)}
		if cur, ok := v[ent]; !ok || cur < lsn {
			v[ent] = lsn
		}
	}
	return v, buf, nil
}

// RecoveryInfo is the content of a recovery message: after recovering from
// a crash that ended CrashedEpoch, Process was able to restore state up to
// Recovered (its recovered state number — the largest LSN persistent
// before the crash).
type RecoveryInfo struct {
	Process      ProcessID
	CrashedEpoch uint32
	Recovered    int64
}

// Knowledge is an MSP's accumulated knowledge of peer recovered state
// numbers, kept per (process, epoch). It is safe for concurrent use.
type Knowledge struct {
	mu  sync.RWMutex
	rec map[ProcessID]map[uint32]int64
}

// NewKnowledge returns an empty knowledge table.
func NewKnowledge() *Knowledge {
	return &Knowledge{rec: make(map[ProcessID]map[uint32]int64)}
}

// Record stores a recovery message's content. It returns true if the
// information was new (not already known).
func (k *Knowledge) Record(info RecoveryInfo) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	m := k.rec[info.Process]
	if m == nil {
		m = make(map[uint32]int64)
		k.rec[info.Process] = m
	}
	if _, ok := m[info.CrashedEpoch]; ok {
		return false
	}
	m[info.CrashedEpoch] = info.Recovered
	return true
}

// Lookup returns the recovered state number recorded for p's epoch, if
// any. A re-run of an interrupted recovery uses it to rebroadcast the
// same number it announced the first time — the recovered state number of
// an epoch is determined once, forever.
func (k *Knowledge) Lookup(p ProcessID, epoch uint32) (int64, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	r, ok := k.rec[p][epoch]
	return r, ok
}

// IsOrphan reports whether a dependency on process p at state s refers to
// state that p lost in a crash: p's epoch s.Epoch is known to have ended
// with a recovered state number smaller than s.LSN.
func (k *Knowledge) IsOrphan(p ProcessID, s StateID) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	r, ok := k.rec[p][s.Epoch]
	return ok && s.LSN > r
}

// OrphanIn returns the first process in v whose entry is an orphan
// dependency, or ("", false) if v contains none.
func (k *Knowledge) OrphanIn(v Vector) (ProcessID, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	for e, lsn := range v {
		if r, ok := k.rec[e.Process][e.Epoch]; ok && lsn > r {
			return e.Process, true
		}
	}
	return "", false
}

// Snapshot returns all recorded recovery information, sorted
// deterministically (by process, then epoch), for inclusion in an MSP
// checkpoint.
func (k *Knowledge) Snapshot() []RecoveryInfo {
	k.mu.RLock()
	defer k.mu.RUnlock()
	var out []RecoveryInfo
	for p, m := range k.rec {
		for e, r := range m {
			out = append(out, RecoveryInfo{Process: p, CrashedEpoch: e, Recovered: r})
		}
	}
	slices.SortFunc(out, func(a, b RecoveryInfo) int {
		return cmp.Or(cmp.Compare(a.Process, b.Process), cmp.Compare(a.CrashedEpoch, b.CrashedEpoch))
	})
	return out
}

// Restore loads previously snapshotted recovery information (checkpoint
// contents or logged recovery-info records) into the table.
func (k *Knowledge) Restore(infos []RecoveryInfo) {
	for _, info := range infos {
		k.Record(info)
	}
}
