package core

import "hash/fnv"

// Tap is the server-side observation surface of the correctness oracle
// (see internal/oracle). An MSP with a non-nil Config.Tap reports every
// request execution, every recovery, every session rollback and a state
// digest at each checkpoint boundary; with the default nil Tap every
// call site is a single guarded nil check, so the request hot path is
// unaffected when no oracle is attached.
//
// Implementations must be safe for concurrent use and must not retain
// the reply slice beyond the call (digest it immediately).
type Tap interface {
	// RequestExecuted reports that the request (session, seq) produced
	// the given reply on server. For a fresh execution (replayed=false)
	// epoch and lsn identify the request's receive record — the state
	// the execution depends on; a later recovery of that epoch whose
	// recovered state number is below lsn, or a session rollback at or
	// below lsn, means the execution was rolled back. Replayed
	// executions (replayed=true) regenerate an execution already
	// reported and never add to execution counts. Servers without a log
	// (txmsp-style stateless dedup over durable state) report epoch 0,
	// lsn 0: their committed executions are never rolled back.
	RequestExecuted(server, session string, seq uint64, epoch uint32, lsn uint64, reply []byte, replayed bool)
	// SessionRolledBack reports that orphan recovery discarded session's
	// log suffix from lsn on (the EOS truncation, §4.1): executions of
	// that session at or above lsn reported before this call are undone.
	SessionRolledBack(server, session string, lsn uint64)
	// ServerRecovered reports a completed MSP crash recovery: state of
	// crashedEpoch beyond the recovered state number is lost forever.
	// Recovery re-announces every crashed epoch it knows about, so a
	// crash between making the number durable and reporting it is
	// repaired by the next incarnation's report.
	ServerRecovered(server string, crashedEpoch uint32, recovered uint64, newEpoch uint32)
	// StateDigest reports a digest of durable state at a checkpoint or
	// recovery boundary (scope names which one).
	StateDigest(server, scope string, epoch uint32, lsn uint64, digest uint64)
}

// ClientTap is the client-side observation surface of the correctness
// oracle: the append-only Invoke/Retry/Reply history of end-client
// requests. A nil ClientTap costs a single nil check per call.
//
// Implementations must be safe for concurrent use and must not retain
// the payload slices beyond the call.
type ClientTap interface {
	// ClientInvoke reports that the client is about to issue (session,
	// seq) for the first time.
	ClientInvoke(session, method string, seq uint64, arg []byte)
	// ClientRetry reports a resend of (session, seq); attempt counts all
	// sends including the first, so the first retry reports attempt 2.
	ClientRetry(session string, seq uint64, attempt int)
	// ClientReply reports the terminal reply the client accepted for
	// (session, seq): ok is true for StatusOK, false for an application
	// error; reply is the payload (the error text for application
	// errors). Transport-level failures produce no reply event.
	ClientReply(session string, seq uint64, ok bool, reply []byte)
}

// tapDigest is the 64-bit FNV-1a digest tap call sites attach to
// StateDigest events; it matches oracle.Digest. Zero, and free, without a
// tap. Call it before appendRec recycles the payload.
func (s *Server) tapDigest(b []byte) uint64 {
	if s.cfg.Tap == nil {
		return 0
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
