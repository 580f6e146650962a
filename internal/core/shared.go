package core

import (
	"errors"
	"fmt"

	"mspr/internal/dv"
	"mspr/internal/logrec"
	"mspr/internal/wal"

	"sync"
)

// SharedVar is a shared variable: a passive recovery unit accessed by all
// sessions of an MSP (§2.2, §3.3). Access is protected by a per-variable
// lock held only for the duration of the access, so no deadlocks are
// possible; reads and writes are value-logged (Fig. 8) so that sessions
// recover without depending on one another, and writes are chained
// backward so an orphan value can be rolled back independently (§4.2).
type SharedVar struct {
	name    string
	srv     *Server
	initial []byte

	mu sync.Mutex
	// value never leaves mu: reads copy it out and records are encoded
	// under it, so a write overwrites it in place. Every restore
	// (rollback, crash recovery) installs a fresh copy, so it never
	// aliases initial or a log payload.
	value     []byte
	vec       dv.Vector // the current value's DV
	stateLSN  wal.LSN   // state number: LSN of the most recent write (or checkpoint)
	lastWrite wal.LSN   // backward-chain head (write or checkpoint record; 0 = virgin)

	writesSince  int     // writes since the last checkpoint
	ckptQueued   bool    // a goroutine running checkpoint(false) has not taken mu yet
	firstWrite   wal.LSN // first write record ever (scan-start bookkeeping)
	lastCkptLSN  wal.LSN
	mspCkptsPast int
}

func newSharedVar(s *Server, def SharedDef) *SharedVar {
	return &SharedVar{
		name:    def.Name,
		srv:     s,
		initial: append([]byte(nil), def.Initial...),
		value:   append([]byte(nil), def.Initial...),
	}
}

// errUnknownShared reports access to an undeclared shared variable.
var errUnknownShared = errors.New("core: unknown shared variable")

// read performs the Fig. 8 read action on behalf of sess.
func (sv *SharedVar) read(sess *Session) ([]byte, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.readLocked(sess)
}

// write performs the Fig. 8 write action on behalf of sess.
func (sv *SharedVar) write(sess *Session, value []byte) error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.writeLocked(sess, value)
}

// update performs a read action and a write action of f's result under one
// hold of the variable's lock, so no other session's access — and no other
// session's log record for this variable — falls between the two. It
// returns the value written.
func (sv *SharedVar) update(sess *Session, f func(old []byte) []byte) ([]byte, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	old, err := sv.readLocked(sess)
	if err != nil {
		return nil, err
	}
	value := f(old)
	return value, sv.writeLocked(sess, value)
}

// readLocked is the Fig. 8 read action: roll the variable back if its
// value is an orphan, log the value with the variable's DV, merge the
// variable's DV into the reader's DV and advance the reader's state number
// to the new record. Caller holds sv.mu.
func (sv *SharedVar) readLocked(sess *Session) ([]byte, error) {
	s := sv.srv
	if !s.cfg.Logging {
		return append([]byte(nil), sv.value...), nil
	}
	if _, orphan := s.know.OrphanIn(sv.vec); orphan {
		if err := sv.rollbackLocked(); err != nil {
			return nil, err
		}
	}
	rec := logrec.SharedRead{Session: sess.id, Var: sv.name, Value: sv.value, DV: sv.vec}
	lsn, n, err := s.appendRec(logrec.TSharedRead, rec.Encode())
	if err != nil {
		return nil, err
	}
	sess.mergeVec(sv.vec)
	sess.noteOwnRecord(lsn, n)
	return append([]byte(nil), sv.value...), nil
}

// writeLocked is the Fig. 8 write action: log the writer's DV, the new
// value and the previous write record's LSN (the backward chain); replace
// the variable's DV with the writer's and advance the variable's state
// number. The writer need not check the variable for orphanhood — the
// value is replaced wholesale. Caller holds sv.mu.
func (sv *SharedVar) writeLocked(sess *Session, value []byte) error {
	s := sv.srv
	if !s.cfg.Logging {
		sv.value = append(sv.value[:0], value...)
		return nil
	}
	wvec := sess.vecWithSelf()
	rec := logrec.SharedWrite{Session: sess.id, Var: sv.name, Value: value, DV: wvec, PrevWrite: sv.lastWrite}
	lsn, n, err := s.appendRec(logrec.TSharedWrite, rec.Encode())
	if err != nil {
		return err
	}
	sess.notePosOnly(lsn, n)
	sv.vec = wvec
	sv.stateLSN = lsn
	sv.lastWrite = lsn
	sv.value = append(sv.value[:0], value...)
	sv.writesSince++
	if sv.firstWrite == 0 {
		sv.firstWrite = lsn
	}
	if s.cfg.SVCkptEvery > 0 && sv.writesSince >= s.cfg.SVCkptEvery && !sv.ckptQueued {
		// The checkpoint's distributed flush is not this request's I/O:
		// hand it to a background goroutine, one per variable at a time.
		// A crashed server refuses; the next write then tries again.
		sv.ckptQueued = s.goBackground(func() { sv.checkpoint(false) })
	}
	return nil
}

// loadLocked restores the variable from the record at lsn on its
// backward chain, read from the log (orphan rollback). It returns the
// write's backward link; a checkpoint ends the chain, so it returns 0.
func (sv *SharedVar) loadLocked(lsn wal.LSN) (prev wal.LSN, err error) {
	typ, payload, err := sv.srv.log.ReadRecord(lsn)
	if err != nil {
		return 0, fmt.Errorf("core: restore %s from %d: %w", sv.name, lsn, err)
	}
	return sv.installLocked(lsn, typ, payload)
}

// installLocked installs the record at lsn, a shared write or a
// checkpoint: the record's value and DV (a checkpoint has none: its value
// can never be an orphan), with lsn as the state number and chain head.
// It returns the write's backward link, or 0 for a checkpoint.
func (sv *SharedVar) installLocked(lsn wal.LSN, typ byte, payload []byte) (prev wal.LSN, err error) {
	var value []byte
	switch logrec.Type(typ) {
	case logrec.TSharedWrite:
		rec, err := logrec.DecodeSharedWrite(payload)
		if err != nil {
			return 0, err
		}
		value, sv.vec, prev = rec.Value, rec.DV, rec.PrevWrite
	case logrec.TSVCheckpoint:
		rec, err := logrec.DecodeSVCheckpoint(payload)
		if err != nil {
			return 0, err
		}
		value, sv.vec = rec.Value, nil
	default:
		return 0, fmt.Errorf("core: restore %s: unexpected %v at %d", sv.name, logrec.Type(typ), lsn)
	}
	sv.value = append([]byte(nil), value...)
	sv.stateLSN = lsn
	sv.lastWrite = lsn
	return prev, nil
}

// rollbackLocked is shared-state orphan recovery (§4.2): follow the
// backward chain of write records to the most recent non-orphan value. A
// checkpoint record terminates the walk (its value can never be an
// orphan); a fully orphaned, never-checkpointed variable rolls back to
// its declared initial value.
func (sv *SharedVar) rollbackLocked() error {
	s := sv.srv
	s.stats.SVRollbacks.Add(1)
	for cur := sv.lastWrite; cur != 0; {
		prev, err := sv.loadLocked(cur)
		if err != nil {
			return err
		}
		if _, orphan := s.know.OrphanIn(sv.vec); !orphan {
			return nil
		}
		cur = prev
	}
	// Chain exhausted: every write since creation is an orphan.
	sv.value = append([]byte(nil), sv.initial...)
	sv.vec = nil
	sv.stateLSN = 0
	sv.lastWrite = 0
	return nil
}

// checkpointLocked takes a shared-variable checkpoint (§3.3): a
// distributed log flush per the variable's DV (during which the variable
// may be found an orphan and rolled back first), then a checkpoint record
// whose value can never become an orphan. The backward chain breaks here.
func (sv *SharedVar) checkpointLocked() error {
	s := sv.srv
	for {
		err := s.flushDV(sv.vec, 0)
		if err == nil {
			break
		}
		if errors.Is(err, errOrphanDep) {
			if rbErr := sv.rollbackLocked(); rbErr != nil {
				return rbErr
			}
			continue // flush the rolled-back value's dependencies instead
		}
		if errors.Is(err, errUnavailable) {
			// A dependency's peer is unreachable past the flush deadline.
			// The checkpoint is only an optimization (it breaks the
			// backward chain), so defer it: writesSince stays over threshold
			// and the next write schedules it again.
			return nil
		}
		return err
	}
	rec := logrec.SVCheckpoint{Var: sv.name, Value: sv.value}
	lsn, _, err := s.appendRec(logrec.TSVCheckpoint, rec.Encode())
	if err != nil {
		return err
	}
	sv.vec = nil
	sv.stateLSN = lsn
	sv.lastWrite = lsn
	sv.writesSince = 0
	sv.lastCkptLSN = lsn
	sv.mspCkptsPast = 0
	s.stats.SVCkpts.Add(1)
	return nil
}

// checkpoint is the one entry point to checkpointLocked, and it only ever
// runs off the request path: scheduled by the write that reached the
// threshold (forced false — a no-op if a forced checkpoint got there
// first), or forced for a stale variable so the analysis-scan start point
// advances (§3.4). The flush, the orphan rollback and the record all
// happen under one hold of the variable's lock, so the record carries
// whatever value is current when the lock is won. Errors are dropped: a
// checkpoint that never lands is a missed optimization, and a dead log
// fails the next append on a request's path.
func (sv *SharedVar) checkpoint(forced bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if !forced {
		sv.ckptQueued = false
		if sv.writesSince < sv.srv.cfg.SVCkptEvery {
			return
		}
	}
	_ = sv.checkpointLocked()
}

// ckptPositions returns the variable's recovery starting points for the
// MSP checkpoint.
func (sv *SharedVar) ckptPositions() (ckpt, firstWrite wal.LSN) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.lastCkptLSN, sv.firstWrite
}

func (sv *SharedVar) bumpMSPCkptAge() {
	sv.mu.Lock()
	sv.mspCkptsPast++
	sv.mu.Unlock()
}

func (sv *SharedVar) mspCkptAge() int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.mspCkptsPast
}

func (sv *SharedVar) written() bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.lastWrite != 0 && sv.writesSince > 0
}

// scanNoteWrite counts a TSharedWrite during the analysis scan without
// decoding it; restoreScanned installs the chain head once the scan is
// over.
func (sv *SharedVar) scanNoteWrite(lsn wal.LSN) {
	sv.mu.Lock()
	if sv.firstWrite == 0 {
		sv.firstWrite = lsn
	}
	sv.writesSince++
	sv.mu.Unlock()
}

// scanNoteCheckpoint notes a TSVCheckpoint during the analysis scan,
// undecoded.
func (sv *SharedVar) scanNoteCheckpoint(lsn wal.LSN) {
	sv.mu.Lock()
	sv.lastCkptLSN = lsn
	sv.writesSince = 0
	sv.mu.Unlock()
}

// restoreScanned installs the variable's chain head, the last of its
// records the analysis scan passed, from the scan's own view of it.
func (sv *SharedVar) restoreScanned(head posEntry) error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	_, err := sv.installLocked(head.lsn, head.typ, head.payload)
	return err
}

// snapshotValue returns the current value without logging (test hook).
func (sv *SharedVar) snapshotValue() []byte {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return append([]byte(nil), sv.value...)
}
