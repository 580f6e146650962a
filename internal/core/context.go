package core

import (
	"errors"
	"fmt"
	"time"

	"mspr/internal/logrec"
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
	"mspr/internal/wal"
)

// replayState is the per-recovery cursor over a session's position
// stream. Replay consumes the stream's records in order; when the stream
// runs out — or an orphan log record is found — the context switches to
// live execution mid-method and the method simply continues for real
// ("the session continues the action occurring at recovery end", §4.1).
type replayState struct {
	positions []posEntry
	idx       int
	switched  bool
}

// peek reads the session's next logged record without consuming it;
// ok=false when the stream is exhausted.
func (rp *replayState) peek(c *Ctx) (lsn wal.LSN, typ logrec.Type, payload []byte, ok bool) {
	if rp.idx >= len(rp.positions) {
		return 0, 0, nil, false
	}
	e := rp.positions[rp.idx]
	typ, payload, err := c.srv.loggedRecord(e)
	if err != nil {
		c.failReplay(fmt.Errorf("core: replay of %s: reading %d: %w", c.srv.cfg.ID, e.lsn, err))
	}
	return e.lsn, typ, payload, true
}

// next consumes and returns the next logged record of the session. When
// the stream is exhausted it returns ok=false with c switched to live
// execution.
func (rp *replayState) next(c *Ctx) (lsn wal.LSN, typ logrec.Type, payload []byte, ok bool) {
	if lsn, typ, payload, ok = rp.peek(c); ok {
		rp.idx++
	} else {
		rp.switched = true
	}
	return lsn, typ, payload, ok
}

// Ctx is the execution context handed to service methods. It provides
// access to session variables (private state, not logged), shared
// variables (value-logged), and synchronous calls to other MSPs. The same
// Ctx type drives both normal execution and recovery replay; service
// methods cannot tell the difference — which is precisely what makes the
// recovery infrastructure transparent.
type Ctx struct {
	srv    *Server
	sess   *Session
	rp     *replayState // nil for live execution
	reqSeq uint64       // sequence number of the request being served
	reqLSN wal.LSN      // its receive record (0 when logging is off)
}

// replaying reports whether the context still replays logged records: it
// has a replay cursor that has not switched to live execution.
func (c *Ctx) replaying() bool { return c.rp != nil && !c.rp.switched }

// abortReason says why a service method was abandoned mid-execution
// (DESIGN.md, "Abort path").
type abortReason uint8

const (
	notAborted         abortReason = iota
	abortOrphan                    // the session is an orphan (interception point, before-send flush)
	abortCrashed                   // the MSP died under the method, or the method called AbortNoReply
	abortReplayRestart             // replay mode: an already-replayed record became an orphan (§4.1)
)

// methodAbort is the one value core panics with on purpose: the Handler
// signature gives Ctx no other way to stop user code. Everything on the
// engine's own stack returns errors instead.
type methodAbort struct {
	reason abortReason
	err    error // what tripped it; seen only if the panic escapes runMethod
}

func (a methodAbort) Error() string { return fmt.Sprintf("core: method abort %d: %v", a.reason, a.err) }

// abortMethod unwinds the running service method up to runMethod.
func abortMethod(reason abortReason, err error) { panic(methodAbort{reason, err}) }

// runMethod executes a request's service method — live or replaying, ctx
// says which — and, unless it was aborted, records the outcome the same
// way for both: reply buffered (§3.1), sequence number advanced, execution
// reported to the tap. It holds the package's only recover(); any other
// panic value (a handler bug) keeps unwinding.
func runMethod(ctx *Ctx, h Handler, arg []byte) (rep rpc.Reply, abort abortReason) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(methodAbort)
			if !ok {
				panic(r)
			}
			abort = a.reason
		}
	}()
	out, appErr := h(ctx, arg)
	s, sess := ctx.srv, ctx.sess
	rep = rpc.Reply{Session: sess.id, Seq: ctx.reqSeq, Status: rpc.StatusOK, Payload: out}
	if appErr != nil {
		rep.Status = rpc.StatusAppError
		rep.Payload = []byte(appErr.Error())
	}
	sess.bufferReply(rep)
	sess.seq.Advance(ctx.reqSeq)
	if tap := s.cfg.Tap; tap != nil {
		// Reported before the reply is sent: whether the client sees it is
		// the client history's business. A method that began in replay is
		// a replayed execution even if it completed live — that only
		// finishes what the incarnation that logged the receive reported.
		tap.RequestExecuted(s.cfg.ID, sess.id, ctx.reqSeq, s.epoch.Load(), uint64(ctx.reqLSN), rep.Payload, ctx.rp != nil)
	}
	return rep, notAborted
}

// failReplay fail-stops the MSP on a replay it cannot carry out — a record
// that cannot be read or decoded, or a log that disagrees with what the
// method does — and unwinds the method. The session keeps owing its
// replay, for an incarnation whose definition matches the log.
func (c *Ctx) failReplay(err error) {
	c.srv.halt()
	abortMethod(abortCrashed, err)
}

// abortIfLogDown stops the method if err is a failed append to, or flush
// of, this MSP's log: the MSP died under it, and user code could return
// err to the client as final.
func (c *Ctx) abortIfLogDown(err error) error {
	if errors.Is(err, errLogDown) {
		abortMethod(abortCrashed, err)
	}
	return err
}

// SessionID returns the identifier of the session serving this request.
func (c *Ctx) SessionID() string { return c.sess.id }

// RequestSeq returns the sequence number of the request being served.
// (SessionID, RequestSeq) uniquely identifies a request execution and is
// stable across replay — methods use it as an idempotency key when
// talking to external transactional systems (testable transactions).
func (c *Ctx) RequestSeq() uint64 { return c.reqSeq }

// AbortNoReply abandons the current request as if the server crashed at
// this instant, without killing the whole MSP's request processing: no
// reply is sent (the client resends) and no further handler code runs.
// Service methods that detect a partial lower-layer failure — e.g. a
// journalled store that crashed between its journal write and commit
// sync — call this instead of returning an application error, because
// an application error would be delivered to the client as a final
// answer and break exactly-once semantics. The resent request must be
// deduplicated below this layer (testable transactions).
func (c *Ctx) AbortNoReply(err error) {
	abortMethod(abortCrashed, fmt.Errorf("core: %s/%s request aborted without reply: %w", c.srv.cfg.ID, c.sess.id, err))
}

// intercept is the recovery infrastructure's interception point (§4.1):
// executed whenever the method sends or receives a message or accesses a
// variable, it checks whether the session has become an orphan. During
// normal execution an orphan aborts the request and triggers session
// orphan recovery; during replay it restarts the replay from the
// checkpoint (the orphan record will be found and skipped).
func (c *Ctx) intercept() {
	if !c.srv.cfg.Logging {
		return
	}
	if _, orphan := c.srv.know.OrphanIn(c.sess.vecLocked()); !orphan {
		return
	}
	if c.replaying() {
		abortMethod(abortReplayRestart, errOrphanDep)
	}
	abortMethod(abortOrphan, errOrphanDep)
}

// GetVar returns a copy of a session variable's value (nil if unset) that
// the caller owns. Session-variable access is not logged: re-execution
// reconstructs private state (§3.2).
func (c *Ctx) GetVar(name string) []byte {
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	v, ok := c.sess.vars[name]
	if !ok {
		return nil
	}
	return append([]byte(nil), v...)
}

// SetVar sets a session variable to a copy of value; the caller keeps
// value. The copy overwrites the variable's existing buffer and allocates
// only when value outgrows it. That is safe because the stored buffer
// never leaves the session's lock: GetVar, VarsSnapshot and the session
// checkpoint copy it out.
func (c *Ctx) SetVar(name string, value []byte) {
	c.sess.mu.Lock()
	c.sess.vars[name] = append(c.sess.vars[name][:0], value...)
	c.sess.mu.Unlock()
}

// VarsSnapshot returns a copy of every session variable. Baseline
// configurations (Psession, StateServer in §5.2) use it to externalize
// session state; applications normally use GetVar/SetVar.
func (c *Ctx) VarsSnapshot() map[string][]byte {
	c.sess.mu.Lock()
	defer c.sess.mu.Unlock()
	out := make(map[string][]byte, len(c.sess.vars))
	for k, v := range c.sess.vars {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// ReplaceVars replaces the entire session-variable map (baseline hook,
// counterpart of VarsSnapshot).
func (c *Ctx) ReplaceVars(vars map[string][]byte) {
	m := make(map[string][]byte, len(vars))
	for k, v := range vars {
		m[k] = append([]byte(nil), v...)
	}
	c.sess.mu.Lock()
	c.sess.vars = m
	c.sess.mu.Unlock()
}

// Work simulates business-logic CPU time. Replay re-executes it (§5.4:
// replay "requires the same amount of CPU time for the method execution").
func (c *Ctx) Work(d time.Duration) {
	simtime.Sleep(time.Duration(float64(d) * c.srv.cfg.TimeScale))
}

// ReadShared reads a shared variable (Fig. 8 read action). During replay
// the value comes from the log, so the reader never depends on the
// writer's recovery (value logging, §3.3).
func (c *Ctx) ReadShared(name string) ([]byte, error) {
	c.intercept()
	sv := c.srv.sharedVar(name)
	if sv == nil {
		return nil, fmt.Errorf("%w: %s", errUnknownShared, name)
	}
	if v, ok := c.replayRead(name); ok {
		return v, nil
	}
	v, err := sv.read(c.sess)
	return v, c.abortIfLogDown(err)
}

// WriteShared writes a shared variable (Fig. 8 write action). Replay
// skips the write: the variable has its own separate recovery (§4.1).
// The only error of a declared variable is this write's own append
// failing; the checkpoint the write may schedule (Config.SVCkptEvery) runs
// in the background, and its flush or append error never reaches the
// handler — the next append on the dead log does. UpdateShared likewise.
func (c *Ctx) WriteShared(name string, value []byte) error {
	c.intercept()
	sv := c.srv.sharedVar(name)
	if sv == nil {
		return fmt.Errorf("%w: %s", errUnknownShared, name)
	}
	if c.replaying() {
		if lsn, typ, payload, ok := c.rp.next(c); ok {
			c.replayedWrite(name, lsn, typ, payload)
			return nil // skipped: shared state recovers separately
		}
	}
	return c.abortIfLogDown(sv.write(c.sess, value))
}

// UpdateShared replaces a shared variable's value with f of its current
// value, atomically with respect to every other session, and returns the
// new value. It is the read action and the write action of Fig. 8 — the
// same two log records, value logging and the backward chain unchanged —
// performed under one hold of the variable's lock: a ReadShared followed
// by a WriteShared lets another session's update land between the two and
// be overwritten. f runs under that lock, and again in replay on the
// logged value: it must depend on nothing but its argument, and must not
// use the Ctx.
func (c *Ctx) UpdateShared(name string, f func(old []byte) []byte) ([]byte, error) {
	c.intercept()
	sv := c.srv.sharedVar(name)
	if sv == nil {
		return nil, fmt.Errorf("%w: %s", errUnknownShared, name)
	}
	for {
		old, ok := c.replayRead(name)
		if !ok {
			break
		}
		// The update's write record follows its read record in the session's
		// stream. If the log ends at the read (a crash took the write), or
		// goes on with the read of a redo, that update never happened: it is
		// redone whole — by the records that follow, or live — never by
		// pairing the logged read with a live write, which would overwrite
		// whatever other sessions wrote since.
		if _, typ, _, more := c.rp.peek(c); more && typ == logrec.TSharedRead {
			continue
		}
		lsn, typ, payload, ok := c.rp.next(c)
		if !ok {
			break
		}
		c.replayedWrite(name, lsn, typ, payload) // a replay mismatch unless it is this update's write
		return f(old), nil
	}
	v, err := sv.update(c.sess, f)
	return v, c.abortIfLogDown(err)
}

// replayRead replays a shared-variable read from the session's next log
// record. ok=false means there is nothing to replay — the context executes
// live, or just switched to it because the stream ran out or the record is
// an orphan — and the caller performs the access for real.
func (c *Ctx) replayRead(name string) (value []byte, ok bool) {
	if !c.replaying() {
		return nil, false
	}
	lsn, typ, payload, ok := c.rp.next(c)
	if !ok {
		return nil, false
	}
	rec, err := logrec.DecodeSharedRead(payload)
	if typ != logrec.TSharedRead || err != nil || rec.Var != name {
		c.failReplay(errors.Join(fmt.Errorf("core: replay mismatch in %s/%s: read of %s, log has %v of %q at %d",
			c.srv.cfg.ID, c.sess.id, name, typ, rec.Var, lsn), err))
	}
	if _, orphan := c.srv.know.OrphanIn(rec.DV); orphan {
		// Orphan log record found: recovery ends here; the read
		// continues as normal execution (§4.1).
		c.abortIfLogDown(c.switchToLiveAtOrphan(lsn))
		return nil, false
	}
	c.sess.mergeVec(rec.DV)
	c.sess.replayAdvance(lsn)
	return append([]byte(nil), rec.Value...), true
}

// replayedWrite checks that the record replay skips for a write of name
// is that write.
func (c *Ctx) replayedWrite(name string, lsn wal.LSN, typ logrec.Type, payload []byte) {
	rec, err := logrec.DecodeSharedWrite(payload)
	if typ != logrec.TSharedWrite || err != nil || rec.Var != name {
		c.failReplay(errors.Join(fmt.Errorf("core: replay mismatch in %s/%s: write of %s, log has %v of %q at %d",
			c.srv.cfg.ID, c.sess.id, name, typ, rec.Var, lsn), err))
	}
}

// Call synchronously invokes a service method of another MSP over this
// session's outgoing session to that MSP. During replay the request is
// not sent; the reply comes from the log (§4.1).
func (c *Ctx) Call(target, method string, arg []byte) ([]byte, error) {
	c.intercept()
	out := c.sess.outSession(target)
	if c.replaying() {
		seq := out.nextSeq
		lsn, typ, payload, ok := c.rp.next(c)
		if !ok {
			return c.liveCall(out, method, arg)
		}
		rec, err := logrec.DecodeReplyReceive(payload)
		if typ != logrec.TReplyReceive || err != nil || rec.OutSession != out.id || rec.Seq != seq {
			c.failReplay(errors.Join(fmt.Errorf("core: replay mismatch in %s/%s: call %s/%d, log has %v of %s/%d at %d",
				c.srv.cfg.ID, c.sess.id, out.id, seq, typ, rec.OutSession, rec.Seq, lsn), err))
		}
		if rec.HasDV {
			if _, orphan := c.srv.know.OrphanIn(rec.DV); orphan {
				// Orphan reply found: recovery ends; re-issue the call
				// live. The target deduplicates by sequence number, so
				// the request still executes exactly once.
				c.abortIfLogDown(c.switchToLiveAtOrphan(lsn))
				return c.liveCall(out, method, arg)
			}
			c.sess.mergeVec(rec.DV)
		}
		c.sess.replayAdvance(lsn)
		out.nextSeq = seq + 1
		return rpc.Reply{Status: rpc.Status(rec.Status), Payload: rec.Reply}.Result()
	}
	return c.liveCall(out, method, arg)
}

// switchToLiveAtOrphan ends replay at an orphan log record: the skipped
// records' positions leave the stream and an EOS record pointing back at
// the orphan record is written (§4.1). It fails only on a dead log.
func (c *Ctx) switchToLiveAtOrphan(orphanLSN wal.LSN) error {
	c.rp.switched = true
	if tap := c.srv.cfg.Tap; tap != nil {
		tap.SessionRolledBack(c.srv.cfg.ID, c.sess.id, uint64(orphanLSN))
	}
	c.sess.truncatePositions(orphanLSN)
	rec := logrec.EOS{Session: c.sess.id, Orphan: orphanLSN}
	// The EOS record needs no immediate flush and its position is not
	// added to the stream — it must be invisible to future replays.
	if _, _, err := c.srv.appendRec(logrec.TEOS, rec.Encode()); err != nil {
		return err
	}
	metrics.Recovery.EOSWritten.Inc()
	return nil
}

// liveCall performs a real outgoing call: locally optimistic logging
// attaches the session's DV inside the domain; a distributed log flush
// precedes any request leaving the domain (Fig. 7 before-send actions).
func (c *Ctx) liveCall(out *outSession, method string, arg []byte) ([]byte, error) {
	s := c.srv
	sess := c.sess
	seq := out.nextSeq
	intra := s.cfg.Domain.Contains(out.target)
	opts := rpc.DefaultCallOptions(s.cfg.TimeScale)
	req := rpc.Request{
		Session:    out.id,
		Seq:        seq,
		Method:     method,
		Arg:        arg,
		NewSession: seq == 1,
		From:       s.ep.Addr(),
	}
	if s.cfg.Logging {
		if intra {
			req.HasDV = true
			req.DV = sess.vecWithSelf()
		} else {
			// The before-send distributed flush. An unreachable peer is a
			// transient condition (partition, crash under repair), not an
			// outcome the method may observe: retry with backoff until
			// the dependency flushes or turns out to be an orphan. The
			// blocked worker is the degradation — the end client gets
			// Busy from the session dispatcher meanwhile. The pause starts at
			// CtlRetransmit and doubles to 16×, jittered per outgoing call.
			var bo *rpc.Backoff
			for {
				err := s.flushSessionDV(sess)
				if err == nil {
					break
				}
				if errors.Is(err, errOrphanDep) {
					abortMethod(abortOrphan, err)
				}
				if !errors.Is(err, errUnavailable) {
					return nil, c.abortIfLogDown(err)
				}
				if s.getState() == stateCrashed {
					abortMethod(abortCrashed, err)
				}
				if bo == nil {
					base := opts.Scaled(s.cfg.CtlRetransmit)
					bo = rpc.NewBackoff(base, 16*base, 0.2, rpc.CallSeed(out.id, seq))
				}
				simtime.Sleep(bo.Next())
				c.intercept()
			}
		}
	}

	// The worker waits like an end client: a shed callee is retried, never
	// answered. Every send is an interception point; receiveLoop drops
	// orphan replies (Fig. 7).
	ch := s.calls.Register(out.id)
	defer s.calls.Deregister(out.id)
	target := simnet.Addr(out.target)
	rep, err := rpc.Exchange(func(r rpc.Request) {
		c.intercept()
		// The path-sensitive flushed-by pass sees two unflushed paths
		// here, both deliberate: intra-domain requests piggyback the DV
		// instead of flushing (locally optimistic logging, paper §3.2),
		// and Logging=false disables recovery entirely.
		s.ep.Send(target, r) //mspr:flushed-by flushSessionDV (inter-domain; intra-domain piggybacks the DV, Logging=false has no recovery)
	}, ch, s.stop, req, opts)
	if err != nil {
		// Without breaker, deadline or attempt bound only ErrStopped
		// (the MSP crashed); an unlogged result must not reach the handler.
		abortMethod(abortCrashed, err)
	}
	c.intercept()
	if s.cfg.Logging {
		rec := logrec.ReplyReceive{Session: sess.id, OutSession: out.id, Seq: seq,
			Status: byte(rep.Status), Reply: rep.Payload, HasDV: rep.HasDV, DV: rep.DV}
		lsn, n, err := s.appendRec(logrec.TReplyReceive, rec.Encode())
		c.abortIfLogDown(err)
		sess.noteReceive(lsn, n, rep.DV)
	}
	out.nextSeq = seq + 1
	return rep.Result()
}

// sharedVar looks up a declared shared variable. The shared map is built
// once in Start from the service definition and never mutated afterwards,
// so the lookup needs no lock.
func (s *Server) sharedVar(name string) *SharedVar {
	return s.shared[name]
}
