package core

import (
	"errors"
	"fmt"

	"mspr/internal/dv"
	"mspr/internal/logrec"
	"mspr/internal/metrics"
	"mspr/internal/simnet"
	"mspr/internal/wal"
)

// recoverFromCrash performs MSP crash recovery (Fig. 12):
//
//  1. restore the log head the last MSP checkpoint recorded in the anchor;
//  2. run a single-threaded analysis scan of the physical log from there,
//     the restart's only read of it, that reconstructs every session's
//     position stream — keeping each session-owned record's raw bytes
//     beside its position, so replay reads nothing twice — and rebuilds
//     the knowledge of recovered state numbers from the MSP checkpoints
//     and recovery records it passes (the anchor's checkpoint lies at or
//     above the head), WITHOUT materializing any session state (instant
//     recovery: the scan is O(log records), not O(state size)); each
//     written shared variable is then installed from the head of its
//     backward chain, one record the scan already holds, and every
//     surviving session is published to the session table unrecovered;
//  3. take a fresh MSP checkpoint, whose one flush and anchor write make
//     the new epoch and the recovered state number durable;
//  4. broadcast a recovery message with the recovered state number;
//  5. return the sessions: the server serves immediately, a request
//     touching an unrecovered session blocks only on that session's
//     replay, and the background sweep (recoverySweep) drains the rest.
func (s *Server) recoverFromCrash(anchor wal.Anchor) ([]*Session, error) {
	crashedEpoch := anchor.Epoch
	// Restore the log head recorded by the last checkpoint; the records
	// below it were discarded by the previous incarnation. This also
	// idempotently finishes a truncation the crash interrupted: segments
	// wholly below the head that escaped deletion are deleted now.
	if err := s.log.TruncateHead(anchor.Head); err != nil {
		return nil, fmt.Errorf("restoring log head %d: %w", anchor.Head, err)
	}

	// The scan starts from the log head the checkpointer recorded in the
	// anchor: the minimal LSN over every session's and shared variable's
	// recovery starting point (§3.4) — including sessions that were still
	// starting when the checkpoint scanned the tables. Such a session
	// appears in no position list (its SessionStart was still being
	// appended, possibly below the checkpoint record), but the
	// checkpointer pinned the head at or below its start, so the scan
	// finds the SessionStart record itself. Records the scan visits below
	// another session's checkpoint are discarded again by
	// scanCheckpointReset when that checkpoint is reached.
	if err := s.evalCrashPoint(FPRecoveryBeforeScan); err != nil {
		return nil, err
	}
	last, sessions, err := s.analysisScan(anchor)
	if err != nil {
		return nil, err
	}
	// A torn log tail (a flush interrupted by the crash) holds only
	// records that were never acknowledged durable; truncate it so the
	// records recovery appends below are not stranded behind garbage.
	s.log.RepairTail()
	s.log.InvalidateCache()
	if err := s.evalCrashPoint(FPRecoveryAfterScan); err != nil {
		return nil, err
	}

	// The largest persistent LSN is the recovered state number; the epoch
	// advances to a new failure-free period. An epoch's recovered state
	// number is determined exactly once: if a previous, interrupted run
	// of this recovery already recorded (and possibly broadcast) a number
	// for the crashed epoch, that number stands — records that became
	// durable after it belong to the interrupted incarnation's epoch.
	recovered := int64(last)
	if prior, ok := s.know.Lookup(s.selfID(), crashedEpoch); ok {
		recovered = prior
	}
	s.epoch.Store(crashedEpoch + 1)
	info := dv.RecoveryInfo{Process: s.selfID(), CrashedEpoch: crashedEpoch, Recovered: recovered}
	s.know.Record(info)
	rec := logrec.RecoveryInfo{Process: string(info.Process), CrashedEpoch: info.CrashedEpoch,
		Recovered: wal.LSN(info.Recovered)}
	if _, _, err := s.appendRec(logrec.TRecoveryInfo, rec.Encode()); err != nil {
		return nil, err
	}
	// The new epoch and the recovered state number must be durable BEFORE
	// the broadcast: if we crash mid-recovery after peers have heard the
	// announcement, the next incarnation must neither reuse this epoch
	// (its LSNs would collide with ours) nor announce a different number
	// for the crashed epoch. The post-recovery checkpoint does both at
	// once: its flush covers the RecoveryInfo record and its own, whose
	// knowledge holds the number, and its anchor carries the new epoch.
	if err := s.writeMSPCheckpoint(); err != nil {
		return nil, err
	}

	if err := s.evalCrashPoint(FPRecoveryBeforeBroadcast); err != nil {
		return nil, err
	}
	// Broadcast within the service domain, over the network: peers ack
	// with their knowledge, so we also learn about crashes broadcast
	// while we were down. A peer unreachable within the broadcast
	// deadline (down, partitioned away) is skipped here and announced to
	// again in the background until it acks; recovery must not block on
	// a split domain.
	//
	// Every epoch of OURS recorded in knowledge is re-announced, not just
	// the one that just crashed: an earlier incarnation may have made its
	// recovered state number durable and then died before its broadcast
	// went out. Peers holding dependencies on that epoch would otherwise
	// wait forever to learn whether they are orphans. Re-announcing is
	// idempotent — a peer keeps the first number it heard for an epoch.
	var learned []dv.RecoveryInfo
	for _, own := range s.know.Snapshot() {
		if own.Process != s.selfID() {
			continue
		}
		learned = append(learned, s.broadcastRecovery(own)...)
	}
	var lastLearned wal.LSN
	for _, l := range learned {
		if s.know.Record(l) {
			lr := logrec.RecoveryInfo{Process: string(l.Process), CrashedEpoch: l.CrashedEpoch,
				Recovered: wal.LSN(l.Recovered)}
			if lastLearned, _, err = s.appendRec(logrec.TRecoveryInfo, lr.Encode()); err != nil {
				return nil, err
			}
		}
	}

	if err := s.evalCrashPoint(FPRecoveryAfterBroadcast); err != nil {
		return nil, err
	}
	if lastLearned != 0 {
		if err := s.log.Flush(lastLearned); err != nil {
			return nil, err
		}
	}

	// Crash window between analysis and the first reply: state is durable
	// (post-recovery checkpoint written, learned knowledge flushed) but no
	// request has been served by this incarnation yet.
	if err := s.evalCrashPoint(FPRecoveryBeforeServe); err != nil {
		return nil, err
	}
	metrics.Recovery.RecoveriesCompleted.Inc()
	if tap := s.cfg.Tap; tap != nil {
		// Every own crashed epoch is reported, not just the one that just
		// crashed: an earlier run of this recovery may have made its
		// recovered state number durable and died before reaching this
		// tap, and the oracle must still learn what that epoch lost.
		for _, own := range s.know.Snapshot() {
			if own.Process == s.selfID() {
				tap.ServerRecovered(s.cfg.ID, own.CrashedEpoch, uint64(own.Recovered), s.epoch.Load())
			}
		}
	}
	return sessions, nil
}

// shellChunk is how many shells the analysis scan cuts from one slab;
// posWindow is how many positions a shell's stream holds before its first
// growth reallocates it: a start and a few requests, recover_4k's shape.
const shellChunk, posWindow = 64, 4

// analysisScan is the single-threaded scan of Fig. 12's step 2, from the
// anchor's log head. It returns the LSN of the last valid (persistent)
// record and the surviving sessions, published to the session table
// unrecovered; it fails if the anchor's checkpoint LSN holds no MSP
// checkpoint. Every written shared variable leaves it restored from its
// chain head.
func (s *Server) analysisScan(anchor wal.Anchor) (wal.LSN, []*Session, error) {
	// A private session index, one map per stripe of the session table,
	// each swapped in whole once the scan is over: no record takes a stripe
	// lock, and no goroutine sees a session the scan writes. Records are
	// routed by a view of their leading ID (logrec.Peek); shells and their
	// streams' first windows are cut from slabs, which live as long as any
	// of their shells, so a shell costs one allocation, its ID.
	var index [numShards]map[string]*Session
	for i := range index {
		index[i] = make(map[string]*Session)
	}
	clients := make(map[string]simnet.Addr)
	var slab []Session
	var windows []posEntry
	shell := func(id []byte) *Session {
		stripe := index[stripeOf(id)]
		if sess := stripe[string(id)]; sess != nil {
			return sess
		}
		if len(slab) == 0 {
			slab, windows = make([]Session, shellChunk), make([]posEntry, shellChunk*posWindow)
		}
		slab[0] = Session{id: string(id), srv: s, pos: posStream{all: windows[:0:posWindow], budget: &s.retained}}
		sess := &slab[0]
		slab, windows = slab[1:], windows[posWindow:]
		sess.markUnrecovered() // a shell owes its replay from birth
		stripe[sess.id] = sess
		return sess
	}
	var atCkpt logrec.Type // the type of the record at anchor.CheckpointLSN
	// Each written shared variable's chain head: the last of its records
	// the scan passes, kept as a view of the scan's payload.
	heads := make(map[*SharedVar]posEntry)
	last, err := s.log.Scan(anchor.Head, func(lsn wal.LSN, typ byte, payload []byte) error {
		if err := s.evalCrashPoint(FPRecoveryMidScan); err != nil {
			return err
		}
		if lsn == anchor.CheckpointLSN {
			atCkpt = logrec.Type(typ)
		}
		switch logrec.Type(typ) {
		case logrec.TSessionStart:
			id, rest, err := logrec.Peek(payload)
			addr, rest, err2 := logrec.Peek(rest)
			var intra bool
			c := logrec.NewDecoder(rest)
			c.Bool(&intra)
			if err := errors.Join(err, err2, c.Done("SessionStart")); err != nil {
				return err
			}
			if _, ok := clients[string(addr)]; !ok { // interned: a string per client
				clients[string(addr)] = simnet.Addr(addr)
			}
			shell(id).scanStart(clients[string(addr)], intra, lsn, typ, payload)
		case logrec.TSessionCkpt:
			// Analysis only: record the checkpoint as the session's replay
			// starting point without decoding the checkpointed state.
			// Materialization happens if and when the session's replay is
			// claimed.
			id, _, err := logrec.Peek(payload)
			if err != nil {
				return err
			}
			shell(id).scanCheckpointNote(lsn, typ, payload)
		case logrec.TReqReceive, logrec.TReplyReceive, logrec.TSharedRead:
			id, _, err := logrec.Peek(payload)
			if err != nil {
				return err
			}
			shell(id).scanNote(lsn, typ, payload)
		case logrec.TSharedWrite:
			id, rest, err := logrec.Peek(payload)
			if err != nil {
				return err
			}
			name, _, err := logrec.Peek(rest)
			if err != nil {
				return err
			}
			shell(id).scanNote(lsn, typ, payload)
			if sv := s.shared[string(name)]; sv != nil {
				sv.scanNoteWrite(lsn)
				heads[sv] = posEntry{lsn: lsn, typ: typ, payload: payload}
			}
		case logrec.TSVCheckpoint:
			name, _, err := logrec.Peek(payload)
			if err != nil {
				return err
			}
			if sv := s.shared[string(name)]; sv != nil {
				sv.scanNoteCheckpoint(lsn)
				heads[sv] = posEntry{lsn: lsn, typ: typ, payload: payload}
			}
		case logrec.TEOS:
			rec, err := logrec.DecodeEOS(payload)
			if err != nil {
				return err
			}
			// Records between the orphan record and this EOS were skipped
			// by a past orphan recovery: make them invisible (§4.1).
			if sess := index[stripeOf(rec.Session)][rec.Session]; sess != nil {
				sess.removePosRange(rec.Orphan, lsn)
			}
		case logrec.TSessionEnd:
			rec, err := logrec.DecodeSessionEnd(payload)
			if err != nil {
				return err
			}
			stripe := index[stripeOf(rec.Session)]
			if sess := stripe[rec.Session]; sess != nil {
				sess.markEnded()
				delete(stripe, rec.Session)
			}
			s.endSession(rec.Session, lsn)
		case logrec.TRecoveryInfo:
			rec, err := logrec.DecodeRecoveryInfo(payload)
			if err != nil {
				return err
			}
			s.know.Record(dv.RecoveryInfo{Process: dv.ProcessID(rec.Process),
				CrashedEpoch: rec.CrashedEpoch, Recovered: int64(rec.Recovered)})
		case logrec.TMSPCheckpoint:
			rec, err := logrec.DecodeMSPCheckpoint(payload)
			if err != nil {
				return err
			}
			s.know.Restore(rec.Knowledge)
		}
		return nil
	})
	if err != nil {
		return last, nil, err
	}
	if atCkpt != logrec.TMSPCheckpoint {
		return last, nil, fmt.Errorf("anchor points at %v at LSN %d, not an MSP checkpoint", atCkpt, anchor.CheckpointLSN)
	}
	// A variable is only its chain head, already in hand: install it now,
	// so no shared variable is left to restore once Start returns.
	for sv, head := range heads {
		if err := sv.restoreScanned(head); err != nil {
			return last, nil, err
		}
	}
	return last, s.sessions.publish(&index), nil
}

// recoverOrphan is runSessionRecovery for a session found to be an orphan
// while live — at an interception point, by a method abort, by a reply or
// checkpoint flush, or by the recovery-message sweep — as opposed to one
// the analysis pass left to be replayed after a crash of this MSP.
func (s *Server) recoverOrphan(sess *Session) {
	if s.cfg.Logging {
		s.stats.OrphanRecoveries.Add(1)
	}
	s.runSessionRecovery(sess)
}

// runSessionRecovery replays a session to its most recent non-orphan
// state (§4.1). The loop restarts replay from the checkpoint when another
// MSP crash mid-recovery retroactively orphans an already-replayed record
// (multiple concurrent crashes, Fig. 11). A replay error is fail-stop.
func (s *Server) runSessionRecovery(sess *Session) {
	sess.releaseToRecovery() // a no-op unless the caller held the session busy
	if !s.cfg.Logging {
		sess.finishRecovery()
		return
	}
	for {
		restart, err := s.replaySessionOnce(sess)
		if err != nil {
			// Fail-stop: the session is half-replayed — a record could not
			// be read or decoded, the log disagrees with the definition,
			// or the MSP died under the replay — and
			// must never serve a request in that state. It stays in
			// recovery, and the incarnation halts (a no-op when it already
			// has): the next one replays the session from the log.
			s.halt()
			return
		}
		if !restart {
			metrics.Recovery.SessionsReplayed.Inc()
			break
		}
		// A crash underneath us must not leave this loop spinning (the
		// crashed server's Crash() waits for its workers).
		if s.getState() == stateCrashed {
			break
		}
	}
	sess.finishRecovery()
}

// loggedRecord returns the record of a position-stream entry: the bytes
// the analysis scan retained, or a read of the log when there are none —
// orphan recovery of a live session, a record appended since the restart,
// one past the retention budget. It is the only log read on the replay
// path; a retained payload is read-only and may be decoded any number of
// times (logrec's decoders copy every byte field), which is what lets a
// restarted replay (Fig. 11) run over the same entries again.
func (s *Server) loggedRecord(e posEntry) (logrec.Type, []byte, error) {
	if e.typ != 0 {
		return logrec.Type(e.typ), e.payload, nil
	}
	typ, payload, err := s.log.ReadRecord(e.lsn)
	return logrec.Type(typ), payload, err
}

// replaySessionOnce re-initializes the session from its most recent
// checkpoint and replays the logged requests along its position stream.
// It reports restart=true if replay must start over due to a concurrent
// crash.
func (s *Server) replaySessionOnce(sess *Session) (restart bool, err error) {
	if ckpt := sess.lastCkpt(); ckpt.lsn != 0 {
		typ, payload, rerr := s.loggedRecord(ckpt)
		if rerr != nil {
			return false, fmt.Errorf("core: reading session checkpoint at %d: %w", ckpt.lsn, rerr)
		}
		if typ != logrec.TSessionCkpt {
			return false, fmt.Errorf("core: %d is %v, not a session checkpoint", ckpt.lsn, typ)
		}
		rec, derr := logrec.DecodeSessionCheckpoint(payload)
		if derr != nil {
			return false, derr
		}
		sess.restoreFromCheckpoint(rec, ckpt.lsn)
	} else {
		sess.resetToInitial()
	}

	rp := &replayState{positions: sess.posSnapshot()}
	ctx := &Ctx{srv: s, sess: sess, rp: rp}

	for rp.idx < len(rp.positions) && !rp.switched {
		if err := s.evalCrashPoint(FPReplayMidSession); err != nil {
			return false, err
		}
		// Retroactive orphan check: a recovery message that arrived since
		// we merged a DV may have orphaned the session mid-replay.
		if _, orphan := s.know.OrphanIn(sess.vecLocked()); orphan {
			return true, nil
		}
		e := rp.positions[rp.idx]
		lsn := e.lsn
		typ, payload, rerr := s.loggedRecord(e)
		if rerr != nil {
			return false, fmt.Errorf("core: replay read at %d: %w", lsn, rerr)
		}
		switch typ {
		case logrec.TSessionStart:
			rp.idx++
			sess.replayAdvance(lsn)
		case logrec.TReqReceive:
			rec, derr := logrec.DecodeReqReceive(payload)
			if derr != nil {
				return false, derr
			}
			if rec.HasDV {
				if _, orphan := s.know.OrphanIn(rec.DV); orphan {
					// Orphan log record at a request boundary: skip it and
					// everything after; the session then waits for new
					// requests (the intra-domain client recovers too and
					// resends).
					return false, ctx.switchToLiveAtOrphan(lsn)
				}
			}
			rp.idx++
			sess.replayReceive(lsn, rec.DV)
			if restart, err := s.replayRequest(ctx, sess, rec, lsn); restart || err != nil {
				return restart, err
			}
		case logrec.TSessionEnd, logrec.TEOS:
			rp.idx++ // defensive: these never drive replay
		default:
			// A bare shared access or reply at top level belongs to a
			// request aborted by the recovery machinery; skip it.
			rp.idx++
		}
	}
	return false, nil
}

// replayRequest re-executes one logged request from its receive record
// at lsn. If replay switches to live execution mid-method (orphan found
// or log exhausted), the method completes for real and its reply is
// sent; otherwise the regenerated reply is only buffered — the client's
// resend will fetch it. restart: the session turned out to be an orphan
// (at an interception point or the live completion's reply flush); the
// re-run truncates at the orphan record. err: the MSP died under it, or
// the definition no longer has the logged method.
func (s *Server) replayRequest(ctx *Ctx, sess *Session, rec logrec.ReqReceive, lsn wal.LSN) (restart bool, err error) {
	if rec.Method == "" {
		return false, nil
	}
	ctx.reqSeq, ctx.reqLSN = rec.Seq, lsn
	h := s.cfg.Def.Methods[rec.Method]
	if h == nil {
		// The method disappeared from the definition between incarnations;
		// nothing can be replayed deterministically.
		return false, fmt.Errorf("core: replay of unknown method %q", rec.Method)
	}
	rep, abort := runMethod(ctx, h, rec.Arg)
	switch abort {
	case abortOrphan, abortReplayRestart:
		return true, nil
	case abortCrashed:
		return false, errUnavailable
	}
	if !ctx.rp.switched {
		s.stats.RequestsReplayed.Add(1)
		return false, nil
	}
	// Live completion: deliver the reply through the normal path. An
	// unreachable dependency leaves the reply buffered; the client's
	// resend delivers it once the peer is back.
	//mspr:flushed-by sendReply
	err = s.sendReply(sess, sess.clientAddress(), rep)
	return errors.Is(err, errOrphanDep), nil
}
