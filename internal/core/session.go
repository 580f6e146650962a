package core

import (
	"sort"
	"sync"

	"mspr/internal/dv"
	"mspr/internal/logrec"
	"mspr/internal/rpc"
	"mspr/internal/simnet"
	"mspr/internal/wal"
)

// sessionPhase tracks what a session is doing. Phases matter for recovery
// scheduling: orphan recovery starts immediately for idle sessions and at
// the next interception point for busy ones (§4.1). move is the only
// store; each helper below names the one transition it makes, and
// TestSessionLifecycle's table is the whole machine.
type sessionPhase int

const (
	phaseIdle sessionPhase = iota
	phaseBusy
	phaseRecovering
	phaseEnded
	// phaseUnrecovered marks a session known from the crash-recovery
	// analysis scan whose state has not been re-materialized yet (instant
	// recovery). The unit state machine is
	// unrecovered → replaying (phaseRecovering) → live (phaseIdle);
	// orphans discovered later re-enter phaseRecovering from idle/busy
	// exactly as before the instant-recovery split. Nothing moves a unit
	// BACK to unrecovered: once claimed, the one-winner guarantee of
	// claimForReplay depends on the phase never reverting.
	phaseUnrecovered
)

// owesReplay reports whether a session in this phase still owes a replay:
// not yet claimed after a crash, or replaying. Server.recovering counts
// the sessions for which it holds.
func (p sessionPhase) owesReplay() bool {
	return p == phaseRecovering || p == phaseUnrecovered
}

// Session is a recovery unit (§3.2): the private state an MSP keeps for
// one client, together with the dependency-tracking and position-stream
// bookkeeping that lets the session be recovered independently of every
// other session.
type Session struct {
	id  string
	srv *Server

	// mu is last in the acquisition lattice: stateMu (10) before a
	// shard stripe (20) before a session. Nothing done under it may
	// block: every request of the session passes through it.
	mu          sync.Mutex   //mspr:lock-level 30 noblock
	phase       sessionPhase //mspr:guarded-by mu
	clientAddr  simnet.Addr  //mspr:guarded-by mu
	intraDomain bool         //mspr:guarded-by mu

	// vars and outgoing are nil in a shell the analysis scan made: its
	// replay makes vars (resetToInitial or restoreFromCheckpoint) before
	// anything else runs on it, the first outgoing call makes outgoing.
	vars map[string][]byte //mspr:guarded-by mu
	// vec: dependencies on other states (self added on demand).
	vec dv.Vector //mspr:guarded-by mu
	// stateLSN: state number — LSN of this session's most recent record.
	stateLSN wal.LSN //mspr:guarded-by mu

	seq      rpc.SeqTracker
	reply    rpc.Reply //mspr:guarded-by mu
	hasReply bool      //mspr:guarded-by mu

	// outgoing is keyed by target MSP ID.
	outgoing map[string]*outSession //mspr:guarded-by mu

	pos posStream //mspr:guarded-by mu
	// bytesLogged: log consumed since the last session checkpoint.
	bytesLogged int64 //mspr:guarded-by mu
	// startLSN: LSN of the session's first log record.
	startLSN wal.LSN //mspr:guarded-by mu
	// lastCkptLSN: LSN of the most recent session checkpoint (0 = none).
	lastCkptLSN wal.LSN //mspr:guarded-by mu
	// mspCkptsPast: MSP checkpoints since the last session checkpoint.
	mspCkptsPast int //mspr:guarded-by mu

	// startPin is the log's append position captured before the session
	// became visible in the (striped) session table, written once before
	// publication. Until noteStart publishes the real start LSN, the
	// fuzzy checkpointer clamps the log head at the pin: the SessionStart
	// record, appended outside the shard lock, can only land at an LSN ≥
	// startPin (see lookupOrCreateSession and writeMSPCheckpoint).
	//
	//mspr:guarded-by mu
	startPin wal.LSN
}

// outSession is the client side of a session this session started with
// another MSP (Fig. 3): the recovery-relevant state is the next available
// request sequence number.
type outSession struct {
	id      string
	target  string
	nextSeq uint64
}

func newSession(s *Server, id string, client simnet.Addr, intra bool) *Session {
	se := &Session{
		id:          id,
		srv:         s,
		clientAddr:  client,
		intraDomain: intra,
		vars:        make(map[string][]byte),
		outgoing:    make(map[string]*outSession),
		pos:         posStream{budget: &s.retained},
	}
	se.seq.SetNext(1)
	return se
}

// ID returns the session identifier.
func (se *Session) ID() string { return se.id }

// move is the one store of a session's phase: it moves the session to
// `to` if its phase is `from`, and reports whether it did. It keeps
// Server.recovering equal to the number of sessions whose phase owes a
// replay.
//
//mspr:holds mu
func (se *Session) move(from, to sessionPhase) bool {
	if se.phase != from {
		return false
	}
	se.phase = to
	switch {
	case to.owesReplay() && !from.owesReplay():
		se.srv.recovering.Add(1)
	case from.owesReplay() && !to.owesReplay():
		se.srv.recovering.Add(-1)
	}
	return true
}

// tryAcquire claims an idle session for exclusive request processing.
func (se *Session) tryAcquire() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.move(phaseIdle, phaseBusy)
}

// release returns the session to idle after processing a request. It is a
// no-op if the session moved to recovering or ended in the meantime.
func (se *Session) release() {
	se.mu.Lock()
	se.move(phaseBusy, phaseIdle)
	se.mu.Unlock()
}

// releaseToRecovery transitions a busy session into recovery (orphan
// found at an interception point mid-request).
func (se *Session) releaseToRecovery() {
	se.mu.Lock()
	se.move(phaseBusy, phaseRecovering)
	se.mu.Unlock()
}

// beginRecoveryIfOrphan transitions an idle session whose DV depends on
// lost state into recovery (orphan found by the recovery-message sweep).
// The sweep does not own the session, so the vector is checked under the
// lock its owner mutates it under — not borrowed (vecLocked).
func (se *Session) beginRecoveryIfOrphan() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	_, orphan := se.srv.know.OrphanIn(se.vec)
	return orphan && se.move(phaseIdle, phaseRecovering)
}

// finishRecovery returns the session to idle after replay completes. A
// session coming out of replay is live: it lets go of the records the
// analysis scan kept for the replay.
func (se *Session) finishRecovery() {
	se.mu.Lock()
	se.move(phaseRecovering, phaseIdle)
	se.pos.release()
	se.mu.Unlock()
}

// markUnrecovered publishes the session as a pending recovery unit at the
// end of the analysis pass: known to the directory, not yet materialized.
// Only an idle (scan-created, never claimed) session may enter
// phaseUnrecovered: an unconditional store here could revert a unit that
// a racing request or the background sweep already claimed for replay,
// voiding claimForReplay's one-winner guarantee (see
// TestMarkUnrecoveredDoesNotRevertClaim).
func (se *Session) markUnrecovered() {
	se.mu.Lock()
	se.move(phaseIdle, phaseUnrecovered)
	se.mu.Unlock()
}

// claimForReplay transitions unrecovered → replaying. Exactly one claimer
// (the first request to touch the session, or the background sweep) wins;
// the loser waits (requests) or skips (sweep).
func (se *Session) claimForReplay() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.move(phaseUnrecovered, phaseRecovering)
}

// pendingReplay reports whether the session still owes a replay — either
// actively replaying or not yet claimed after a crash.
func (se *Session) pendingReplay() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.phase.owesReplay()
}

// releaseRetained lets go of the session's retained records without a
// phase change (incarnation teardown with replay still owed).
func (se *Session) releaseRetained() {
	se.mu.Lock()
	se.pos.release()
	se.mu.Unlock()
}

// markEnded tears the session down from whatever phase it is in.
func (se *Session) markEnded() {
	se.mu.Lock()
	se.move(se.phase, phaseEnded)
	se.pos.truncateAll()
	se.mu.Unlock()
}

// vecSnapshot returns a copy of the session's dependency vector.
func (se *Session) vecSnapshot() dv.Vector {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.vec.Clone()
}

// vecLocked returns the vector without copying; callers must not retain
// or mutate it. Used under the server lock for the orphan sweep.
func (se *Session) vecLocked() dv.Vector {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.vec
}

// vecWithSelf returns the session's DV extended with the self-dependency
// at the session's current state identifier ("a process always depends on
// itself at its current state identifier").
func (se *Session) vecWithSelf() dv.Vector {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.vec.CloneWith(dv.Entry{Process: se.srv.selfID(), Epoch: se.srv.epoch.Load()}, int64(se.stateLSN))
}

// noteStart records the session's SessionStart log record.
func (se *Session) noteStart(lsn wal.LSN, n int) {
	se.mu.Lock()
	se.startLSN = lsn
	se.stateLSN = lsn
	se.pos.append(posEntry{lsn: lsn})
	se.bytesLogged += int64(n)
	se.mu.Unlock()
}

// noteOwnRecord advances the session state number to a freshly written
// log record and accounts it in the position stream.
func (se *Session) noteOwnRecord(lsn wal.LSN, n int) {
	se.mu.Lock()
	se.stateLSN = lsn
	se.pos.append(posEntry{lsn: lsn})
	se.bytesLogged += int64(n)
	se.mu.Unlock()
}

// notePosOnly appends a record position without advancing the state
// number (shared-variable writes change the variable's state number, not
// the session's — Fig. 8).
func (se *Session) notePosOnly(lsn wal.LSN, n int) {
	se.mu.Lock()
	se.pos.append(posEntry{lsn: lsn})
	se.bytesLogged += int64(n)
	se.mu.Unlock()
}

// noteReceive logs the receipt of a message: advance the state number and
// merge the attached DV (Fig. 7 after-receive actions).
func (se *Session) noteReceive(lsn wal.LSN, n int, attached dv.Vector) {
	se.mu.Lock()
	se.stateLSN = lsn
	se.pos.append(posEntry{lsn: lsn})
	se.bytesLogged += int64(n)
	se.vec = se.vec.Merge(attached)
	se.mu.Unlock()
}

// mergeVec folds a DV into the session's DV (shared-variable reads).
func (se *Session) mergeVec(v dv.Vector) {
	se.mu.Lock()
	se.vec = se.vec.Merge(v)
	se.mu.Unlock()
}

// stateNumber returns the LSN of the session's most recent record.
func (se *Session) stateNumber() wal.LSN {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.stateLSN
}

// logged returns the log consumed since the last session checkpoint.
func (se *Session) logged() int64 {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.bytesLogged
}

// bufferReply stores the latest reply so it can be resent if lost (§3.1).
func (se *Session) bufferReply(rep rpc.Reply) {
	se.mu.Lock()
	rep.HasDV = false
	rep.DV = nil
	se.reply = rep
	se.hasReply = true
	se.mu.Unlock()
}

// bufferedReplyEnvelope returns the buffered reply for resending.
func (se *Session) bufferedReplyEnvelope() (rpc.Reply, bool) {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.reply, se.hasReply
}

// outSession returns (creating deterministically if needed) the outgoing
// session to target. Creation order is deterministic in the method's
// execution, so replay recreates identical outgoing-session IDs.
func (se *Session) outSession(target string) *outSession {
	se.mu.Lock()
	defer se.mu.Unlock()
	o, ok := se.outgoing[target]
	if !ok {
		if se.outgoing == nil {
			se.outgoing = make(map[string]*outSession)
		}
		o = &outSession{
			id:      se.id + "~" + se.srv.cfg.ID + "~" + target,
			target:  target,
			nextSeq: 1,
		}
		se.outgoing[target] = o
	}
	return o
}

// ckptPositions returns the session's recovery starting points for
// inclusion in an MSP checkpoint, plus the pre-publication pin the
// checkpointer falls back to while the session is still starting
// (ckpt and start both zero).
func (se *Session) ckptPositions() (ckpt, start, pin wal.LSN) {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.lastCkptLSN, se.startLSN, se.startPin
}

func (se *Session) bumpMSPCkptAge() {
	se.mu.Lock()
	se.mspCkptsPast++
	se.mu.Unlock()
}

func (se *Session) mspCkptAge() int {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.mspCkptsPast
}

// checkpointRecord snapshots the session state for a session checkpoint
// (§3.2): session variables, buffered reply, sequence numbers of the
// inbound session and of every outgoing session, and the session's DV —
// no control state.
func (se *Session) checkpointRecord() logrec.SessionCheckpoint {
	se.mu.Lock()
	defer se.mu.Unlock()
	rec := logrec.SessionCheckpoint{
		Session:      se.id,
		ClientAddr:   string(se.clientAddr),
		IntraDomain:  se.intraDomain,
		Vars:         make(map[string][]byte, len(se.vars)),
		NextExpected: se.seq.Next(),
		DV:           se.vec.Clone(),
	}
	for k, v := range se.vars {
		rec.Vars[k] = append([]byte(nil), v...)
	}
	if se.hasReply {
		rec.HasReply = true
		rec.ReplySeq = se.reply.Seq
		rec.ReplyStatus = byte(se.reply.Status)
		rec.Reply = append([]byte(nil), se.reply.Payload...)
	}
	targets := make([]string, 0, len(se.outgoing))
	for t := range se.outgoing {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, t := range targets {
		o := se.outgoing[t]
		rec.Outgoing = append(rec.Outgoing, logrec.OutSessionState{ID: o.id, Target: o.target, NextSeq: o.nextSeq})
	}
	return rec
}

// completeCheckpoint finishes a session checkpoint: the previous log
// records are discarded from the position stream and the thresholds
// reset.
func (se *Session) completeCheckpoint(lsn wal.LSN) {
	se.mu.Lock()
	se.lastCkptLSN = lsn
	se.stateLSN = lsn
	se.pos.truncateAll()
	se.bytesLogged = 0
	se.mspCkptsPast = 0
	se.mu.Unlock()
}

// restoreFromCheckpoint re-initializes the session from a checkpoint
// record (start of session recovery, §4.1, or crash-recovery scan).
func (se *Session) restoreFromCheckpoint(rec logrec.SessionCheckpoint, ckptLSN wal.LSN) {
	se.mu.Lock()
	se.clientAddr = simnet.Addr(rec.ClientAddr)
	se.intraDomain = rec.IntraDomain
	se.vars = make(map[string][]byte, len(rec.Vars))
	for k, v := range rec.Vars {
		se.vars[k] = append([]byte(nil), v...)
	}
	se.vec = rec.DV.Clone()
	se.stateLSN = ckptLSN
	se.seq.SetNext(rec.NextExpected)
	se.hasReply = rec.HasReply
	se.reply = rpc.Reply{}
	if rec.HasReply {
		se.reply = rpc.Reply{Session: se.id, Seq: rec.ReplySeq, Status: rpc.Status(rec.ReplyStatus),
			Payload: append([]byte(nil), rec.Reply...)}
	}
	se.outgoing = make(map[string]*outSession, len(rec.Outgoing))
	for _, o := range rec.Outgoing {
		se.outgoing[o.Target] = &outSession{id: o.ID, target: o.Target, nextSeq: o.NextSeq}
	}
	se.lastCkptLSN = ckptLSN
	se.mu.Unlock()
}

// replayAdvance moves the session's state number to a replayed record's
// LSN ("the session's state number and DV are updated in the same way as
// they were during normal execution", §4.1) without touching the position
// stream — the record is already in it.
func (se *Session) replayAdvance(lsn wal.LSN) {
	se.mu.Lock()
	se.stateLSN = lsn
	se.mu.Unlock()
}

// replayReceive is replayAdvance plus the DV merge of a received message.
func (se *Session) replayReceive(lsn wal.LSN, attached dv.Vector) {
	se.mu.Lock()
	se.stateLSN = lsn
	se.vec = se.vec.Merge(attached)
	se.mu.Unlock()
}

// truncatePositions removes positions ≥ lsn from the stream (orphan
// recovery end).
func (se *Session) truncatePositions(lsn wal.LSN) {
	se.mu.Lock()
	se.pos.truncateFrom(lsn)
	se.mu.Unlock()
}

// lastCkpt returns the session's most recent checkpoint (lsn 0 = none):
// the record the analysis scan retained if it is that one, else its bare
// position.
func (se *Session) lastCkpt() posEntry {
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.pos.ckpt.lsn == se.lastCkptLSN {
		return se.pos.ckpt
	}
	return posEntry{lsn: se.lastCkptLSN}
}

// clientAddress returns the address replies are sent to.
func (se *Session) clientAddress() simnet.Addr {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.clientAddr
}

// intra reports whether the session's client is inside the domain (the
// guardedby analyzer caught the previous direct field read in
// sendReply, which raced with restoreFromCheckpoint).
func (se *Session) intra() bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.intraDomain
}

// posSnapshot returns a copy of the session's position stream for replay.
func (se *Session) posSnapshot() []posEntry {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.pos.snapshot()
}

// removePosRange drops positions in [from, to) from the stream (EOS
// records found by the analysis scan make skipped records invisible).
func (se *Session) removePosRange(from, to wal.LSN) {
	se.mu.Lock()
	se.pos.removeRange(from, to)
	se.mu.Unlock()
}

// scanNote appends a record during the crash-recovery analysis scan. The
// payload is wal.Scan's: read-only, and valid for as long as it is kept.
//
//mspr:guardedby single-threaded analysis scan, before the session is published
func (se *Session) scanNote(lsn wal.LSN, typ byte, payload []byte) {
	se.pos.append(se.pos.retained(lsn, typ, payload))
	se.bytesLogged += int64(len(payload) + wal.FrameOverhead)
}

// scanStart applies a SessionStart record during the scan.
//
//mspr:guardedby single-threaded analysis scan, before the session is published
func (se *Session) scanStart(client simnet.Addr, intra bool, lsn wal.LSN, typ byte, payload []byte) {
	se.clientAddr = client
	se.intraDomain = intra
	se.startLSN = lsn
	se.scanNote(lsn, typ, payload)
}

// scanCheckpointNote applies a session checkpoint during the analysis
// scan without materializing its state: positions before the checkpoint
// (and an earlier checkpoint) are discarded and the recovery starting
// point recorded. The checkpoint record is kept undecoded; it is decoded
// only if and when the session's replay is claimed (replaySessionOnce).
//
//mspr:guardedby single-threaded analysis scan, before the session is published
func (se *Session) scanCheckpointNote(ckptLSN wal.LSN, typ byte, payload []byte) {
	se.pos.restartAtCheckpoint(ckptLSN, typ, payload)
	se.bytesLogged = 0
	se.lastCkptLSN = ckptLSN
	se.stateLSN = ckptLSN
}

// resetToInitial re-initializes a session that has never checkpointed to
// its creation state (replay will rebuild everything from the log).
func (se *Session) resetToInitial() {
	se.mu.Lock()
	se.vars = make(map[string][]byte)
	se.vec = nil
	se.stateLSN = 0
	se.seq.SetNext(1)
	se.hasReply = false
	se.reply = rpc.Reply{}
	se.outgoing = nil // made by the first outgoing call, as in a shell
	se.mu.Unlock()
}
