// Package sdb is a small durable key-value store with journalled
// transactions. It stands in for the "local DBMS" of the paper's
// Psession baseline configuration (§5.2), in which the web server
// persists session state in a database with one read transaction and one
// write transaction per request — the cost structure the experiments
// compare log-based recovery against.
//
// The journal is a wal.Log: a commit is one record and a flush, so it
// returns only once the record is durable. Once the log has grown by
// compactAt bytes, a snapshot record of the whole store is written, the
// anchor is pointed at it and the log below it is truncated; Open replays
// from the newest snapshot. Disk costs are charged to the backing
// simulated disk: a read transaction charges the sectors it reads, a
// commit the synced log write (which, on the paper's disk model, includes
// the expected random-seek component — the dominant cost of Psession).
package sdb

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"mspr/internal/failpoint"
	"mspr/internal/logrec"
	"mspr/internal/simdisk"
	"mspr/internal/wal"
)

// FPCommitCrash crashes a commit between the journal write and the
// moment the committing process learns of its success: the journal
// record is durable (Open finds the transaction committed after a
// restart), but Commit reports failpoint.ErrInjected and the store
// wedges until reopened. Callers must treat such a transaction as
// UNACKNOWLEDGED, never as failed — with testable transactions the
// retry finds the idempotency record and returns the recorded reply.
const FPCommitCrash = "sdb.commit.crash"

// ErrWedged is returned by operations on a store whose simulated
// process died mid-commit; only reopening (a new incarnation) helps.
var ErrWedged = errors.New("sdb: store wedged by injected crash")

// The journal compacts once it has grown by compactAt bytes since the
// last snapshot. A segment holds four compactions: a rotation writes a
// segment header and the anchor, a seek each on the paper's disk model,
// and rotating on every compaction would raise Psession's commit cost.
const (
	compactAt   = 1 << 20
	segmentSize = 4 * compactAt
)

// Record types of the journal. Both list puts, then deleted keys.
const (
	recCommit byte = 1 // one transaction's writes, overlaid on the state
	recSnap   byte = 2 // the whole store, replacing the state
)

// Store is a durable transactional KV store. Write transactions are
// serialized (single-writer two-phase locking degenerate case): Begin
// with writable=true blocks until the previous writer commits or aborts,
// so read-modify-write sequences inside a transaction are isolated.
type Store struct {
	disk *simdisk.Disk
	log  *wal.Log

	writer sync.Mutex // serializes writable transactions
	// snapEnd is where the newest snapshot record ends, compactAt the
	// growth past it that triggers the next; both belong to the writer.
	snapEnd   wal.LSN
	compactAt wal.LSN

	mu     sync.Mutex
	data   map[string][]byte
	wedged bool
}

// Open opens (creating if necessary) the named store on disk: it replays
// the journal from the newest snapshot and cuts off a torn tail. Damage
// to a record that valid records follow is wal.ErrCorrupt: those were
// acknowledged commits.
func Open(disk *simdisk.Disk, name string) (*Store, error) {
	log, err := wal.Open(disk, name+".journal", wal.Config{SegmentSize: segmentSize})
	if err != nil {
		return nil, err
	}
	s := &Store{disk: disk, log: log, compactAt: compactAt, data: make(map[string][]byte)}
	if err := s.load(); err != nil {
		return nil, errors.Join(err, log.Close())
	}
	return s, nil
}

// load replays the journal from the snapshot the anchor names.
func (s *Store) load() error {
	a, _, err := s.log.ReadAnchor()
	if err != nil {
		return err
	}
	_, err = s.log.Scan(a.CheckpointLSN, func(lsn wal.LSN, typ byte, p []byte) error {
		var puts map[string][]byte
		var dels []string
		dec := logrec.NewDecoder(p)
		walkRecord(&dec, &puts, &dels)
		if err := dec.Done("sdb record"); err != nil {
			return fmt.Errorf("sdb: %w", err)
		}
		if typ == recSnap {
			s.data = make(map[string][]byte, len(puts))
			s.snapEnd = lsn + wal.LSN(len(p)+wal.FrameOverhead)
		}
		s.apply(puts, dels)
		return nil
	})
	if err != nil {
		return err
	}
	s.log.RepairTail()
	return nil
}

// walkRecord lists a journal record's fields: the puts, then the
// deleted keys.
func walkRecord(c *logrec.Coder, puts *map[string][]byte, dels *[]string) {
	c.StrMap(puts)
	n := c.Len(len(*dels))
	if c.Decoding() {
		*dels = make([]string, n)
	}
	for i := range *dels {
		c.Str(&(*dels)[i])
	}
}

// apply overlays puts and deletions on the state. The caller holds s.mu,
// or is load, before the store is shared.
func (s *Store) apply(puts map[string][]byte, dels []string) {
	for k, v := range puts {
		s.data[k] = v
	}
	for _, k := range dels {
		delete(s.data, k)
	}
}

// write appends one record, flushes it and returns its LSN. The caller
// holds the writer lock but not s.mu: readers never wait on the disk.
func (s *Store) write(typ byte, puts map[string][]byte, dels []string) (wal.LSN, error) {
	var enc logrec.Coder
	walkRecord(&enc, &puts, &dels)
	lsn, err := s.log.Append(typ, enc.Encoded())
	if err == nil {
		err = s.log.Flush(lsn)
	}
	return lsn, s.failed(err)
}

// failed wedges the store if err is an injected fault, which means the
// process died mid-write, and returns err.
func (s *Store) failed(err error) error {
	if failpoint.IsInjected(err) {
		s.mu.Lock()
		s.wedged = true
		s.mu.Unlock()
	}
	return err
}

// Close ends this incarnation of the store; the data stays on disk. A
// commit through a closed store fails with wal.ErrClosed, so a dead
// incarnation cannot write over the records of the one reopened after it.
func (s *Store) Close() error { return s.log.Close() }

// Log returns the store's journal.
func (s *Store) Log() *wal.Log { return s.log }

// Get reads a key outside any transaction, charging a read of at least
// one sector. It returns a copy of the value.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	v, ok := s.data[key]
	out := append([]byte(nil), v...)
	s.mu.Unlock()
	s.disk.ChargeRead(max(1, (len(out)+simdisk.SectorSize-1)/simdisk.SectorSize))
	return out, ok
}

// Tx is a transaction. Read transactions see a consistent snapshot of the
// keys they touch; write transactions buffer updates until Commit.
type Tx struct {
	store    *Store
	writable bool
	writes   map[string][]byte // nil value = delete
	done     bool
}

// Begin starts a transaction. A writable transaction holds the store's
// writer lock until Commit or Abort; hold it briefly.
func (s *Store) Begin(writable bool) *Tx {
	if writable {
		s.writer.Lock()
	}
	return &Tx{store: s, writable: writable, writes: make(map[string][]byte)}
}

// errTxDone is returned when using a finished transaction.
var errTxDone = errors.New("sdb: transaction already finished")

// Get reads a key within the transaction (its own writes win).
func (tx *Tx) Get(key string) ([]byte, bool, error) {
	if tx.done {
		return nil, false, errTxDone
	}
	if v, ok := tx.writes[key]; ok {
		if v == nil {
			return nil, false, nil
		}
		return append([]byte(nil), v...), true, nil
	}
	if tx.store.Wedged() {
		return nil, false, ErrWedged
	}
	v, ok := tx.store.Get(key)
	return v, ok, nil
}

// Put stages a write.
func (tx *Tx) Put(key string, value []byte) error {
	if tx.done {
		return errTxDone
	}
	if !tx.writable {
		return errors.New("sdb: Put on read-only transaction")
	}
	tx.writes[key] = append([]byte(nil), value...)
	return nil
}

// Delete stages a deletion.
func (tx *Tx) Delete(key string) error {
	if tx.done {
		return errTxDone
	}
	if !tx.writable {
		return errors.New("sdb: Delete on read-only transaction")
	}
	tx.writes[key] = nil
	return nil
}

// Commit makes the transaction's writes durable: one journal record
// and a flush. Read-only transactions commit for free.
func (tx *Tx) Commit() error {
	if tx.done {
		return errTxDone
	}
	tx.done = true
	if !tx.writable {
		return nil
	}
	defer tx.store.writer.Unlock()
	if len(tx.writes) == 0 {
		return nil
	}
	s := tx.store
	if s.Wedged() {
		return ErrWedged
	}
	puts := make(map[string][]byte, len(tx.writes))
	var dels []string
	for k, v := range tx.writes {
		if v == nil {
			dels = append(dels, k)
		} else {
			puts[k] = v
		}
	}
	slices.Sort(dels)
	if _, err := s.write(recCommit, puts, dels); err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.disk.Failpoints().Eval(FPCommitCrash); ok {
		// The journal record is fully durable, but this incarnation dies
		// before observing the commit: in-memory state is NOT updated and
		// every further operation fails until the store is reopened.
		s.wedged = true
		s.mu.Unlock()
		return fmt.Errorf("sdb: commit crashed after journal write: %w", failpoint.ErrInjected)
	}
	s.apply(puts, dels)
	s.mu.Unlock()
	if s.log.Next()-s.snapEnd >= s.compactAt {
		return s.compact()
	}
	return nil
}

// Abort discards the transaction.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	if tx.writable {
		tx.store.writer.Unlock()
	}
}

// compact writes a snapshot record of the whole store, points the anchor
// at it and truncates the log below it; a crash before the anchor write
// recovers from the previous snapshot. The caller, Commit, holds the
// writer lock, so the state the snapshot encodes without s.mu is stable.
func (s *Store) compact() error {
	lsn, err := s.write(recSnap, s.data, nil)
	if err != nil {
		return err
	}
	if err := s.log.WriteAnchor(wal.Anchor{CheckpointLSN: lsn, Head: lsn}); err != nil {
		return s.failed(err)
	}
	s.snapEnd = s.log.Next()
	return s.failed(s.log.TruncateHead(lsn))
}

// Wedged reports whether the store's simulated process died mid-commit
// (injected crash); a wedged store must be reopened.
func (s *Store) Wedged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wedged
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Digest returns an order-independent digest of the committed state:
// the XOR of per-entry FNV-1a hashes over key and value. Two stores
// hold identical data iff their digests match (up to hash collisions);
// the correctness oracle records it at storm boundaries to compare a
// recovered store against the state the history predicts.
func (s *Store) Digest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d uint64
	for k, v := range s.data {
		h := fnv.New64a()
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write(v)
		d ^= h.Sum64()
	}
	return d
}
