package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mspr/internal/dv"
	"mspr/internal/failpoint"
	"mspr/internal/logrec"
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
	"mspr/internal/wal"
)

// Named crash points of the recovery machinery (see Config.Disk).
// Each halts the MSP exactly as a process death at that instant would:
// volatile state is abandoned, the endpoint goes down, and the log's
// buffered records are lost. Recovery must be re-enterable from any of
// them.
const (
	// FPRecoveryBeforeScan crashes after the anchor was read and the log
	// head restored, before the analysis scan (Fig. 12 step 2) starts.
	FPRecoveryBeforeScan = "core.recovery.before-scan"
	// FPRecoveryMidScan crashes inside the analysis scan, between two
	// scanned records (use failpoint.SkipFirst to pick which).
	FPRecoveryMidScan = "core.recovery.mid-scan"
	// FPRecoveryAfterScan crashes after the scan, before the recovered
	// state number is made durable by the post-recovery checkpoint.
	FPRecoveryAfterScan = "core.recovery.after-scan"
	// FPRecoveryBeforeBroadcast crashes after the post-recovery checkpoint
	// made the new epoch and the recovered state number durable but before
	// the recovery broadcast (§4.3): peers learn the crash only from the
	// next incarnation, which must announce the same number.
	FPRecoveryBeforeBroadcast = "core.recovery.before-broadcast"
	// FPRecoveryAfterBroadcast crashes after peers heard the broadcast
	// but before what it taught this MSP is flushed.
	FPRecoveryAfterBroadcast = "core.recovery.after-broadcast"
	// FPCkptBeforeAnchor crashes a fuzzy MSP checkpoint (§3.4) after the
	// checkpoint record is durable but before the anchor points at it. In
	// crash recovery the post-recovery checkpoint reaches it (and
	// FPCkptBeforeTruncate) before FPRecoveryBeforeBroadcast.
	FPCkptBeforeAnchor = "core.ckpt.before-anchor"
	// FPCkptBeforeTruncate crashes after the anchor update but before
	// the old log prefix is discarded.
	FPCkptBeforeTruncate = "core.ckpt.before-truncate"
	// FPReplayMidSession crashes session replay (§4.1) between two
	// replayed records.
	FPReplayMidSession = "core.replay.mid-session"
	// FPRecoveryBeforeServe crashes in the instant-recovery window
	// between the end of the analysis pass (unrecovered set published,
	// post-recovery checkpoint durable) and the first reply the new
	// incarnation sends.
	FPRecoveryBeforeServe = "core.recovery.before-serve"
	// FPLazyReplay crashes a lazy (on-demand) session replay: a request
	// touched an unrecovered session, the session was claimed, and the
	// crash hits before its replay starts.
	FPLazyReplay = "core.recovery.lazy-replay"
	// FPSweepMid crashes the background recovery sweep before it offers
	// a session (use failpoint.SkipFirst to pick which).
	FPSweepMid = "core.recovery.mid-sweep"
	// FPDedupSkip does not crash anything: while armed, a request
	// classified as a duplicate is executed as if it were new —
	// deliberately broken duplicate detection. It exists so the
	// correctness oracle's exactly-once checker can be demonstrated to
	// fail (and a failing storm minimized) against a known-broken server;
	// nothing arms it outside tests and cmd/mspr-chaos -break-dedup.
	FPDedupSkip = "core.dedup.skip"
)

// Sentinel errors used across the recovery protocol.
var (
	// errOrphanDep reports that a distributed log flush failed because a
	// dependency refers to state lost in a crash: the flushing session or
	// shared variable is an orphan (§3.1, §4.1).
	errOrphanDep = errors.New("core: dependency is an orphan")
	// errUnavailable reports that a peer MSP is down or still recovering.
	errUnavailable = errors.New("core: peer unavailable")
	// errLogDown marks every error appendRec returns, and a failed flush of
	// this MSP's own log (flushTo): the log was closed or wedged by a crash
	// of this MSP (see Ctx.abortIfLogDown).
	errLogDown = errors.New("core: log is down")
)

type serverState int32

const (
	stateRecovering serverState = iota
	stateRunning
	stateCrashed
)

// Server is a Middleware Server Process (MSP): a crash unit hosting many
// sessions (the recovery units) and shared variables, all logging to one
// physical log.
type Server struct {
	cfg Config
	ep  *simnet.Endpoint
	log *wal.Log

	know  *dv.Knowledge
	epoch atomic.Uint32 // current epoch (failure-free period)

	// state is read on every request (hot path) and so kept atomic;
	// stateMu serializes transitions with goBackground's WaitGroup
	// increment (see goBackground) — it is never taken on the hot path.
	// Root of the lattice (taken before any stripe or session lock),
	// and noblock: its critical sections are a handful of instructions.
	stateMu sync.Mutex   //mspr:lock-level 10 noblock
	state   atomic.Int32 // serverState

	// sessions is lock-striped (see shards.go); shared is immutable
	// after Start (built from Def.Shared before any worker runs), each
	// variable carrying its own lock.
	sessions sessionTable
	shared   map[string]*SharedVar
	// recovering counts the sessions that still owe a replay (see
	// sessionPhase.owesReplay); Session.move, the one phase store,
	// maintains it.
	recovering atomic.Int64
	// retained accounts the log records the analysis scan left in the
	// sessions' position streams (posstream.go).
	retained retention

	// Admission lanes (see admission.go): reqCh is the bounded normal
	// lane for new client work, prioCh the small priority lane for
	// recovery-critical traffic, which workers drain first, and sweepCh
	// the unbuffered lane on which recoverySweep offers unclaimed sessions.
	// sweepSlots caps the sweep's units on offer or in replay at
	// sweepShare(Workers): recoverySweep takes a slot before each offer,
	// and the worker that took the unit returns it when the unit is done.
	reqCh      chan rpc.Request
	prioCh     chan rpc.Request
	sweepCh    chan *Session
	sweepSlots chan struct{}
	stop       chan struct{}
	wg         sync.WaitGroup

	// calls routes incoming replies to the workers blocked in outgoing
	// calls, keyed by outgoing-session ID.
	calls rpc.Router[string, rpc.Reply]

	// Control plane (see ctlplane.go): outgoing control-call IDs, the
	// routing of control replies by the call ID they echo, and one
	// *rpc.Breaker per domain peer, keyed by its ID.
	ctlID atomic.Uint64
	ctl   rpc.Router[uint64, rpc.Reply]
	peers sync.Map

	bytesSinceCkpt atomic.Int64
	ckptRunning    atomic.Bool

	// Instant-recovery time-to-first-reply: recoverT0 is when this
	// incarnation's crash recovery began; ttfrPending arms the one-shot
	// measurement in reply(); ttfr holds the measured duration in
	// nanoseconds (0 = no crash recovery, or no reply sent yet).
	recoverT0   time.Time
	ttfrPending atomic.Bool
	ttfr        atomic.Int64

	stats ServerStats
}

// ServerStats counts recovery-infrastructure activity.
type ServerStats struct {
	RequestsServed   atomic.Int64
	RequestsReplayed atomic.Int64
	SessionCkpts     atomic.Int64
	SVCkpts          atomic.Int64
	MSPCkpts         atomic.Int64
	OrphanRecoveries atomic.Int64
	SVRollbacks      atomic.Int64
	DistFlushes      atomic.Int64
	BusyReplies      atomic.Int64
	// OverloadedReplies counts requests shed with StatusOverloaded —
	// admission-queue overflow plus expired-deadline sheds.
	OverloadedReplies atomic.Int64
}

// Start creates and starts an MSP. If the configured disk holds a log
// with an anchor from a previous incarnation, Start performs full MSP
// crash recovery (§4.3) before accepting requests: sessions recover in
// parallel while new sessions are already being served.
func Start(cfg Config) (*Server, error) {
	if cfg.ID == "" {
		return nil, errors.New("core: config needs an ID")
	}
	if cfg.Domain == nil {
		return nil, errors.New("core: config needs a Domain")
	}
	if cfg.Net == nil {
		return nil, errors.New("core: config needs a Net")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 32
	}
	if cfg.FlushDeadline <= 0 {
		cfg.FlushDeadline = 2 * time.Second
	}
	if cfg.CtlRetransmit <= 0 {
		cfg.CtlRetransmit = 20 * time.Millisecond
	}
	if cfg.BroadcastDeadline <= 0 {
		cfg.BroadcastDeadline = 500 * time.Millisecond
	}
	if cfg.PeerProbeEvery <= 0 {
		cfg.PeerProbeEvery = 100 * time.Millisecond
	}
	if cfg.RequestQueueDepth <= 0 {
		cfg.RequestQueueDepth = DefaultRequestQueueDepth
	}
	if cfg.PriorityQueueDepth <= 0 {
		cfg.PriorityQueueDepth = DefaultPriorityQueueDepth
	}
	s := &Server{
		cfg:        cfg,
		know:       dv.NewKnowledge(),
		shared:     make(map[string]*SharedVar),
		reqCh:      make(chan rpc.Request, cfg.RequestQueueDepth),
		prioCh:     make(chan rpc.Request, cfg.PriorityQueueDepth),
		sweepCh:    make(chan *Session),
		sweepSlots: make(chan struct{}, sweepShare(cfg.Workers)),
		stop:       make(chan struct{}),
	}
	s.state.Store(int32(stateRecovering))
	s.sessions.init()
	s.retained.limit = retainBudgetHook
	s.epoch.Store(1) // epoch 1 is the first failure-free period
	for _, def := range cfg.Def.Shared {
		s.shared[def.Name] = newSharedVar(s, def)
	}
	s.ep = cfg.Net.Endpoint(simnet.Addr(cfg.ID))
	s.ep.SetDown(false)
	s.registerWithDomain()

	// The receive loop and worker pool start before crash recovery runs:
	// a recovering MSP answers clients with Busy and serves domain
	// control traffic — its own recovery broadcast needs the acks routed
	// back to it — instead of dead-dropping everything until recovery
	// ends. handleRequest degrades to Busy while the state is not
	// Running.
	s.wg.Add(1)
	go s.receiveLoop()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}

	var recoveredSessions []*Session
	if cfg.Logging {
		if cfg.Disk == nil {
			s.halt()
			return nil, errors.New("core: logging requires a Disk")
		}
		lg, err := wal.Open(cfg.Disk, cfg.ID+".log", wal.Config{
			BatchTimeout: cfg.BatchFlushTimeout,
			SegmentSize:  cfg.WalSegmentSize,
		})
		if err != nil {
			s.halt()
			return nil, err
		}
		s.log = lg
		anchor, ok, err := lg.ReadAnchor()
		if err != nil {
			s.halt()
			return nil, fmt.Errorf("core: %s: %w", cfg.ID, err)
		}
		if ok {
			s.recoverT0 = simtime.Now()
			recoveredSessions, err = s.recoverFromCrash(anchor)
			if err != nil {
				// Leave the carcass exactly as a crash would: endpoint
				// down, log closed. A later Start recovers from disk.
				s.halt()
				s.releaseRetained()
				return nil, fmt.Errorf("core: %s: crash recovery: %w", cfg.ID, err)
			}
			s.ttfrPending.Store(true)
		} else {
			// Fresh start: persist an initial MSP checkpoint and anchor so
			// the very first crash already finds a recovery starting point.
			if err := s.writeMSPCheckpoint(); err != nil {
				s.halt()
				return nil, err
			}
		}
	}

	s.setState(stateRunning)
	// Instant recovery (§4.3 + REDO-only instant restart): the server is
	// already serving — a request touching an unrecovered session claims
	// and replays just that session — while the background sweep drains
	// the remaining units on the pool's lowest lane. noRecoverySweep
	// leaves the drain entirely to first touch (tests).
	if len(recoveredSessions) > 0 && !cfg.noRecoverySweep {
		s.goBackground(func() { s.recoverySweep(recoveredSessions) })
	}
	return s, nil
}

// sweepShare is how many units the sweep may have on offer or in replay at
// once: three of every whole four workers, and at least one. Every worker
// listens to the sweep lane; the cap keeps at least workers −
// sweepShare(workers) of them outside any sweep unit at every instant, so
// a request always finds one, and while some workers serve requests the
// others still fill the cap. Three quarters because it was measured
// (EXPERIMENTS.md, "The sweep under a concurrency cap"): it drains
// recover_4k about 1.3 times as fast as half, for about 5 % on the median
// request that arrives during the drain; the whole pool drains little
// faster and costs that request about a tenth. A pool of three or fewer
// has one unit in flight: the serial recovery the ablation runs.
func sweepShare(workers int) int { return max(1, workers/4*3) }

// recoverySweep drains the unrecovered sessions left by the analysis pass.
// It offers them one by one on the unbuffered sweep lane, each after
// taking a slot of sweepSlots, and workers take them between requests (see
// worker). A crash, real or injected, ends it: sessions not yet offered
// stay pending, and releaseRetained drops their records.
func (s *Server) recoverySweep(sessions []*Session) {
	for _, sess := range sessions {
		if err := s.evalCrashPoint(FPSweepMid); err != nil {
			return
		}
		select {
		case <-s.stop:
			return
		case s.sweepSlots <- struct{}{}:
		}
		select {
		case <-s.stop:
			<-s.sweepSlots
			return
		case s.sweepCh <- sess:
		}
	}
}

// releaseRetained drops the log records retained for the replay of every
// session still owing one. Called after a teardown (Crash, or a failed
// recovery's halt): the units belong to the dead incarnation — the next
// Start rebuilds whatever its own analysis pass finds.
func (s *Server) releaseRetained() {
	s.sessions.forEach(func(sess *Session) { sess.releaseRetained() })
}

// RecoveringSessions reports how many sessions still owe a replay —
// actively replaying or not yet claimed since the crash. Experiment
// harnesses poll it to time the full recovery drain.
func (s *Server) RecoveringSessions() int {
	return int(s.recovering.Load())
}

// TimeToFirstReply reports how long this incarnation took from the start
// of crash recovery to its first state-bearing reply (0 until the first
// reply is sent, and always 0 for an incarnation that did not crash-
// recover). This is the instant-recovery headline latency: it covers the
// analysis pass plus at most one session's replay, independent of total
// state size.
func (s *Server) TimeToFirstReply() time.Duration {
	return time.Duration(s.ttfr.Load())
}

// goBackground runs f on a tracked goroutine unless the server has
// crashed; the state check and WaitGroup increment are atomic with
// respect to Crash, so Crash's Wait never races an Add.
func (s *Server) goBackground(f func()) bool {
	s.stateMu.Lock()
	if s.getState() == stateCrashed {
		s.stateMu.Unlock()
		return false
	}
	s.wg.Add(1)
	s.stateMu.Unlock()
	go func() {
		defer s.wg.Done()
		f()
	}()
	return true
}

// ID returns the MSP's process identifier.
func (s *Server) ID() string { return s.cfg.ID }

// Epoch returns the MSP's current epoch number.
func (s *Server) Epoch() uint32 { return s.epoch.Load() }

// Stats exposes the server's activity counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// Log exposes the server's physical log (nil when logging is disabled).
// Tests and experiment harnesses use it to inspect durability.
func (s *Server) Log() *wal.Log { return s.log }

func (s *Server) setState(st serverState) {
	s.stateMu.Lock()
	s.state.Store(int32(st))
	s.stateMu.Unlock()
}

func (s *Server) getState() serverState {
	return serverState(s.state.Load())
}

// halt marks the MSP dead at this instant: the network endpoint goes
// down, the stop channel closes, and the log is closed (discarding the
// volatile buffer, like a real crash). It does not wait for workers —
// an injected crash point halts from inside a worker or the recovery
// path, where waiting on itself would deadlock. Idempotent.
func (s *Server) halt() {
	s.stateMu.Lock()
	if s.getState() == stateCrashed {
		s.stateMu.Unlock()
		return
	}
	s.state.Store(int32(stateCrashed))
	s.stateMu.Unlock()
	s.ep.SetDown(true)
	close(s.stop)
	if s.log != nil {
		s.log.Close() // a crash: the buffered log tail is meant to be lost
	}
}

// Halted reports whether this incarnation has stopped: a crash point or a
// fail-stop rule halted it, or it was crashed.
func (s *Server) Halted() bool { return s.getState() == stateCrashed }

// fp returns the fault-injection registry attached to the MSP's disk
// (nil when injection is off or the MSP has no disk — safe to Eval
// either way).
func (s *Server) fp() *failpoint.Registry {
	if s.cfg.Disk == nil {
		return nil
	}
	return s.cfg.Disk.Failpoints()
}

// evalCrashPoint fires a named crash failpoint: when armed, the MSP
// halts as if the process died at that instant and the injected error
// is returned for the caller to propagate.
func (s *Server) evalCrashPoint(name string) error {
	if _, ok := s.fp().Eval(name); !ok {
		return nil
	}
	s.halt()
	return fmt.Errorf("core: %s: crash point %s: %w", s.cfg.ID, name, failpoint.ErrInjected)
}

// Crash kills the MSP: the network endpoint goes down, workers stop, and
// every volatile structure — including the log buffer and all session,
// shared-variable and dependency state — is abandoned. Only data flushed
// to the disk survives into the next Start. Crash also collects an MSP
// already halted by an injected crash point, so harnesses can always
// tear down with Crash before restarting.
func (s *Server) Crash() {
	s.halt()
	s.wg.Wait()
	// With all workers and the sweep stopped, nothing replays this
	// incarnation's units any more.
	s.releaseRetained()
}

// Shutdown stops the MSP cleanly: the log is flushed first so a
// subsequent Start recovers the complete state. A flush failure is
// returned — the disk kept records the caller believed durable, and a
// restart will recover only what actually reached it.
func (s *Server) Shutdown() error {
	var err error
	if s.log != nil {
		if last := s.log.LastAppended(); last != 0 {
			err = s.log.Flush(last)
		}
	}
	s.Crash()
	return err
}

// registerWithDomain adds this MSP to its domain's membership and gives
// the links to every existing member the domain's model one-way latency
// (the paper's MSP↔MSP RTT is distinct from the client↔MSP RTT).
func (s *Server) registerWithDomain() {
	others := s.cfg.Domain.Members()
	s.cfg.Domain.register(s.cfg.ID)
	ow := s.cfg.Domain.OneWay()
	if ow <= 0 {
		return
	}
	self := simnet.Addr(s.cfg.ID)
	for _, m := range others {
		if m != s.cfg.ID {
			s.cfg.Net.SetLinkLatency(self, simnet.Addr(m), ow)
		}
	}
}

// receiveLoop dispatches network messages: control-plane requests to a
// serveCtl goroutine each (a flush can block on the disk), other requests
// to the worker pool, control replies to the waiting control calls, and
// other replies that are no orphans to waiting outgoing calls.
func (s *Server) receiveLoop() {
	defer s.wg.Done()
	rpc.Serve(s.ep, s.stop, func(m simnet.Message) {
		s.noteContact(m.From)
		switch p := m.Payload.(type) {
		case rpc.Request:
			if isCtl(p.Session) {
				req := p // captured instead of p, which would move every request to the heap
				s.goBackground(func() { s.serveCtl(req) })
			} else {
				s.admit(p)
			}
		case rpc.Reply:
			if isCtl(p.Session) {
				s.ctl.Resolve(p.Seq, p)
			} else if _, orphan := s.know.OrphanIn(p.DV); !p.HasDV || !orphan {
				// Fig. 7: drop an orphan reply; the call's resend fetches a clean one.
				s.calls.Resolve(p.Session, p)
			}
		}
	})
}

// worker serves the admission lanes, the sweep lane included: the cap on
// units in flight (sweepSlots), not the choice of worker, is what leaves
// workers free for requests.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Drain the priority lane first: lazy-replay claims and
		// recovery-window traffic must not starve behind a flood of new
		// work filling the normal lane.
		select {
		case <-s.stop:
			return
		case req := <-s.prioCh:
			s.handleRequest(req)
			continue
		default:
		}
		// Only the priority lane is strict. Between the normal and the
		// sweep lane select picks fairly: facing a full normal lane a worker
		// still sweeps about every other pick, so a flood cannot park recovery.
		select {
		case <-s.stop:
			return
		case req := <-s.prioCh:
			s.handleRequest(req)
		case req := <-s.reqCh:
			s.handleRequest(req)
		case sess := <-s.sweepCh:
			// Unless a request claimed it first (lazy replay), it has
			// ended, or the MSP died while the unit was on offer.
			if s.getState() != stateCrashed && sess.claimForReplay() {
				metrics.Recovery.SweepReplays.Inc()
				s.runSessionRecovery(sess)
			}
			<-s.sweepSlots // replayed, skipped or torn down: the unit is done
		}
	}
}

// reply sends a reply envelope to addr.
func (s *Server) reply(addr simnet.Addr, rep rpc.Reply) {
	if s.ttfrPending.Load() && rep.Status != rpc.StatusBusy && rep.Status != rpc.StatusRejected &&
		rep.Status != rpc.StatusOverloaded &&
		s.ttfrPending.CompareAndSwap(true, false) {
		// First state-bearing reply since crash recovery began: the
		// instant-recovery time-to-first-reply measurement.
		d := simtime.Since(s.recoverT0)
		s.ttfr.Store(int64(d))
	}
	s.ep.Send(addr, rep) //mspr:flushed-by readyReply (state-bearing replies flush there; Busy/Rejected envelopes carry no state)
}

func (s *Server) replyBusy(req rpc.Request) {
	s.stats.BusyReplies.Add(1)
	s.reply(req.From, rpc.Reply{Session: req.Session, Seq: req.Seq, Status: rpc.StatusBusy})
}

// handleRequest implements the server side of Fig. 7 plus session
// dispatch: duplicate detection, orphan interception, receive logging,
// method execution, reply buffering and the logging action appropriate to
// the client's locality.
func (s *Server) handleRequest(req rpc.Request) {
	if req.NewSession {
		defer s.sessions.shard(req.Session).arriving.Add(-1) // admitted: see sessionShard
	}
	if s.getState() != stateRunning {
		s.replyBusy(req)
		return
	}
	if _, ok := s.cfg.Def.Methods[req.Method]; !ok && !req.EndSession {
		s.reply(req.From, rpc.Reply{Session: req.Session, Seq: req.Seq, Status: rpc.StatusRejected,
			Payload: []byte("unknown method " + req.Method)})
		return
	}

	sess, status := s.lookupOrCreateSession(req)
	switch status {
	case sessionRejected:
		rep := rpc.Reply{Session: req.Session, Seq: req.Seq, Status: rpc.StatusRejected, Payload: []byte("unknown session")}
		if req.EndSession {
			// A resent End whose first acknowledgement was lost or slow: the
			// session is gone, which is all End promises. Rejected would
			// be terminal for the client; acknowledge again.
			rep.Status, rep.Payload = rpc.StatusOK, nil
		}
		s.reply(req.From, rep)
		return
	case sessionBusyNow:
		// Recovering, checkpointing or already executing: the client
		// backs off and resends (§5.4).
		s.replyBusy(req)
		return
	case sessionUnrecovered:
		// Instant recovery's lazy restore: this request touched a session
		// not yet replayed since the crash and won the claim. Replay it
		// here — the request blocks only on THIS session's replay — then
		// serve against the restored state.
		if err := s.evalCrashPoint(FPLazyReplay); err != nil {
			sess.finishRecovery() // claimed but never replayed; next incarnation redoes it
			return
		}
		metrics.Recovery.LazyReplays.Inc()
		s.runSessionRecovery(sess)
		if s.getState() != stateRunning || !sess.tryAcquire() {
			s.replyBusy(req)
			return
		}
	}
	s.serveAcquired(sess, req)
}

// serveAcquired serves one request against an exclusively held session
// (Fig. 7's receive-execute-reply body plus checkpoint scheduling).
func (s *Server) serveAcquired(sess *Session, req rpc.Request) {
	defer sess.release()

	classification := sess.seq.Classify(req.Seq)
	if s.cfg.StatelessSessions {
		// Duplicate detection happens below this layer (idempotent
		// handlers over durable state); execute every delivery.
		classification = rpc.SeqNew
	}
	if classification == rpc.SeqDuplicate {
		if _, ok := s.fp().Eval(FPDedupSkip); ok {
			classification = rpc.SeqNew // armed: broken dedup re-executes
		}
	}
	switch classification {
	case rpc.SeqIgnore:
		return
	case rpc.SeqDuplicate:
		// An orphan's buffered reply names lost states, and its caller
		// drops it on every resend. The recovery-message sweep skips a
		// session that is busy when the news arrives, so a resend is
		// where such a session is caught.
		if s.interceptOrphan(sess, req) {
			return
		}
		// The buffered reply may have been lost in the network or in a
		// client crash; resend it (§3.1). If its flush is blocked on an
		// unreachable peer, tell the client Busy so it backs off instead
		// of timing out.
		if rep, ok := sess.bufferedReplyEnvelope(); ok {
			//mspr:flushed-by sendReply
			err := s.sendReply(sess, req.From, rep)
			if err != nil && !errors.Is(err, errOrphanDep) {
				s.replyBusy(req)
			}
			if err == nil && req.EndSession && rep.Seq == req.Seq {
				// The End executed earlier but its acknowledgement could not
				// be flushed then (finishEndSession kept the session for
				// this resend): now that it went out, finish the end. The
				// SessionEnd is the session's last record, or a checkpoint
				// followed it and the tombstone just lasts longer.
				s.endSession(sess.id, sess.stateNumber())
				sess.markEnded()
			}
		}
		return
	}

	if s.interceptOrphan(sess, req) {
		return
	}
	var reqLSN wal.LSN
	if s.cfg.Logging {
		// Fig. 7, after-receive action for intra-domain messages: if the
		// attached DV shows the message is an orphan, discard it.
		if req.HasDV {
			if _, orphan := s.know.OrphanIn(req.DV); orphan {
				return
			}
		}
		rec := logrec.ReqReceive{Session: sess.id, Seq: req.Seq, Method: req.Method,
			Arg: req.Arg, HasDV: req.HasDV, DV: req.DV}
		lsn, n, err := s.appendRec(logrec.TReqReceive, rec.Encode())
		if err != nil {
			return // died after the state check: no reply, the client resends
		}
		sess.noteReceive(lsn, n, req.DV)
		reqLSN = lsn
	}

	if req.EndSession {
		s.finishEndSession(sess, req)
		return
	}

	ctx := &Ctx{srv: s, sess: sess, reqSeq: req.Seq, reqLSN: reqLSN}
	rep, abort := runMethod(ctx, s.cfg.Def.Methods[req.Method], req.Arg)
	if abort != notAborted {
		// The session was found to be an orphan (or the server crashed)
		// mid-method. No reply: the client resends after recovery.
		if s.getState() != stateCrashed {
			s.recoverOrphan(sess)
		}
		return
	}

	//mspr:flushed-by sendReply
	if err := s.sendReply(sess, req.From, rep); err != nil {
		if errors.Is(err, errOrphanDep) {
			s.recoverOrphan(sess)
			return
		}
		// A dependency's peer is unreachable (partitioned or down past
		// the flush deadline): degrade to Busy. The request executed and
		// its reply is buffered; the client's resend fetches it through
		// the duplicate path once the peer is reachable again.
		s.replyBusy(req)
		return
	}
	s.stats.RequestsServed.Add(1)

	// Between requests: session checkpoint when the session has consumed
	// enough log (§3.2), and an MSP fuzzy checkpoint when the log grew
	// enough (§3.4).
	if s.cfg.Logging && s.cfg.SessionCkptThreshold > 0 && sess.logged() >= s.cfg.SessionCkptThreshold {
		if err := s.checkpointSession(sess); errors.Is(err, errOrphanDep) {
			s.recoverOrphan(sess)
			return
		}
	}
	s.maybeMSPCheckpoint()
}

// interceptOrphan is the interception point of a request to a held
// session: a session that has become an orphan answers Busy and is rolled
// back, and the client's resend finds it recovered.
func (s *Server) interceptOrphan(sess *Session, req rpc.Request) bool {
	if !s.cfg.Logging {
		return false
	}
	if _, orphan := s.know.OrphanIn(sess.vecLocked()); !orphan {
		return false
	}
	s.replyBusy(req)
	s.recoverOrphan(sess)
	return true
}

// sendReply transmits a reply once readyReply let it leave. A non-nil
// return means the reply was NOT sent: errOrphanDep if the flush
// discovered the session to be an orphan (the caller initiates orphan
// recovery), or errUnavailable if a dependency's peer stayed unreachable
// within the flush deadline (the caller degrades to Busy; the buffered
// reply is delivered by the client's resend once the peer is reachable
// again).
func (s *Server) sendReply(sess *Session, to simnet.Addr, rep rpc.Reply) error {
	rep, err := s.readyReply(sess, rep)
	if err == nil {
		s.reply(to, rep)
	}
	return err
}

// readyReply prepares a reply to leave according to the client's
// locality (Fig. 7): an intra-domain reply carries the session's DV and
// requires no flush; a reply leaving the domain (every end-client reply)
// requires a distributed log flush per the session's DV first.
func (s *Server) readyReply(sess *Session, rep rpc.Reply) (rpc.Reply, error) {
	if s.cfg.Logging {
		if sess.intra() {
			rep.HasDV = true
			rep.DV = sess.vecWithSelf()
		} else if err := s.flushSessionDV(sess); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func (s *Server) finishEndSession(sess *Session, req rpc.Request) {
	var endLSN wal.LSN
	if s.cfg.Logging {
		lsn, n, err := s.appendRec(logrec.TSessionEnd, logrec.SessionEnd{Session: sess.id}.Encode())
		if err != nil {
			return // crashed underneath the End: no reply, the client resends
		}
		sess.noteOwnRecord(lsn, n)
		endLSN = lsn
	}
	rep := rpc.Reply{Session: sess.id, Seq: req.Seq, Status: rpc.StatusOK}
	sess.bufferReply(rep)
	sess.seq.Advance(req.Seq)
	if rep, err := s.readyReply(sess, rep); err == nil {
		// Out of the table before the acknowledgement leaves: a client
		// holding the OK never finds its session still there.
		s.endSession(sess.id, endLSN)
		sess.markEnded()
		s.reply(req.From, rep)
	} else if errors.Is(err, errOrphanDep) {
		// The end-of-session flush discovered the session is an orphan:
		// recover it like any other reply flush would (§4.2). The end did
		// not complete — the session stays in the table, and the client's
		// resent End runs fresh against the recovered session.
		s.recoverOrphan(sess)
	} else {
		// Unreachable dependency: the end acknowledgement could not be
		// flushed. Keep the session; the client's resend completes the
		// end once the peer is back.
		s.replyBusy(req)
	}
}

// endSession removes an ended session from the table and, in the same
// critical section, leaves its tombstone at endLSN, the LSN of its
// SessionEnd record (see sessionShard.ended) — unless there is no End
// record to bound its life (no logging) or the server re-creates any
// session on demand by design (StatelessSessions).
func (s *Server) endSession(id string, endLSN wal.LSN) {
	sh := s.sessions.shard(id)
	sh.mu.Lock()
	delete(sh.m, id)
	if s.cfg.Logging && !s.cfg.StatelessSessions {
		sh.ended[id] = endLSN
	}
	sh.mu.Unlock()
}

type sessionStatus int

const (
	sessionOK sessionStatus = iota
	sessionRejected
	sessionBusyNow
	// sessionUnrecovered: the session exists but has not been replayed
	// since the crash, and this request won the claim to replay it
	// (instant recovery's lazy-restore path). The session is held in
	// phaseRecovering by the caller.
	sessionUnrecovered
)

// lookupOrCreateSession finds the request's session, creating it for a
// NewSession request unless it is tombstoned (ended), and acquires it for
// exclusive processing.
//
// A created session is born acquired (phaseBusy): it exists on behalf of
// this request, so a competing delivery of the same session ID backs off
// with Busy instead of racing for a half-initialized session. The
// SessionStart append happens OUTSIDE the shard lock — the log's own
// mutex is the only serialization appends need — which opens a window
// where the session is visible to the fuzzy checkpointer without a
// start LSN. startPin (captured from the log before the session becomes
// visible) bounds the future SessionStart LSN from below, and the
// checkpointer clamps the log head at the pin, so a live session's
// records are never truncated (see writeMSPCheckpoint and shards.go).
func (s *Server) lookupOrCreateSession(req rpc.Request) (*Session, sessionStatus) {
	sh := s.sessions.shard(req.Session)
	sh.mu.Lock()
	sess, ok := sh.m[req.Session]
	if ok {
		sh.mu.Unlock()
		if sess.tryAcquire() {
			return sess, sessionOK
		}
		if sess.claimForReplay() {
			return sess, sessionUnrecovered
		}
		return nil, sessionBusyNow
	}
	if _, ended := sh.ended[req.Session]; ended || !req.NewSession && !s.cfg.StatelessSessions {
		sh.mu.Unlock()
		return nil, sessionRejected
	}
	sess = newSession(s, req.Session, req.From, req.HasDV)
	// Born acquired, published below: the session is not yet visible to
	// any other goroutine, so the claim always wins and the pin write
	// needs no se.mu.
	sess.tryAcquire()
	if s.cfg.Logging {
		sess.startPin = s.log.Next() //mspr:guardedby fresh session, not yet published
	}
	sh.m[req.Session] = sess
	sh.mu.Unlock()

	if s.cfg.Logging {
		rec := logrec.SessionStart{Session: sess.id, ClientAddr: string(req.From), IntraDomain: req.HasDV}
		lsn, n, err := s.appendRec(logrec.TSessionStart, rec.Encode())
		if err != nil {
			// Crashing underneath us: withdraw the stillborn session so
			// no future request finds a session without a start record.
			s.sessions.delete(req.Session)
			return nil, sessionBusyNow
		}
		sess.noteStart(lsn, n)
	}
	return sess, sessionOK
}

// appendRec is the one way core writes a log record. It returns the
// record's LSN and on-log size, or an errLogDown error when a crash closed
// or wedged the log — callers abandon the work and send no reply. The
// payload, always a freshly encoded record, is recycled into the logrec
// encode-buffer pool (wal.Append has copied it by then): callers must not
// touch it afterwards.
func (s *Server) appendRec(t logrec.Type, payload []byte) (wal.LSN, int, error) {
	lsn, err := s.log.Append(byte(t), payload)
	n := len(payload) + wal.FrameOverhead
	logrec.Recycle(payload)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %w", errLogDown, err)
	}
	s.bytesSinceCkpt.Add(int64(n))
	return lsn, n, nil
}

// selfState returns the MSP's state identifier factory values for
// building self-dependencies.
func (s *Server) selfID() dv.ProcessID { return dv.ProcessID(s.cfg.ID) }

// flushSessionDV performs the distributed log flush dictated by the
// session's DV plus its self-dependency — the flush every state-bearing
// reply, before-send action and session checkpoint needs (§3.1). The
// caller must hold the session (acquired or recovering): exclusive
// ownership is what makes borrowing the vector without a clone safe —
// only the owning worker ever mutates a session's vector, and it is
// busy right here.
func (s *Server) flushSessionDV(sess *Session) error {
	sess.mu.Lock()
	vec := sess.vec // a borrow: the session is exclusively held, nothing mutates the vector during the flush
	selfLSN := int64(sess.stateLSN)
	sess.mu.Unlock()
	return s.flushDV(vec, selfLSN)
}

// flushDV is the distributed log flush (§3.1): it returns once every state
// vec names, and this MSP's own state up to selfLSN in the current epoch,
// is durable — or errOrphanDep if any of it was lost in a crash, which
// outranks errUnavailable (a peer that stayed unreachable). A caller whose
// own state is already in its vector (a shared variable: the writer's self
// entry) passes selfLSN 0. vec is only read.
//
// It spends a goroutine only on what has to wait for the network: an empty
// vector — the end-client session with no cross-process dependency, every
// session under pessimistic logging — is one local flush on the calling
// worker; own-process entries of the current epoch fold into that local
// flush; entries of an earlier epoch of our own settle against the
// knowledge table inline (flushTo never blocks for them); each peer entry
// gets a goroutine, and the local flush overlaps them on the caller.
func (s *Server) flushDV(vec dv.Vector, selfLSN int64) error {
	if !s.cfg.Logging {
		return nil
	}
	s.stats.DistFlushes.Add(1)
	epoch := s.epoch.Load()
	if len(vec) == 0 {
		return s.flushTo(dv.StateID{Epoch: epoch, LSN: selfLSN})
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil || errors.Is(err, errOrphanDep) {
			firstErr = err
		}
		mu.Unlock()
	}
	for e, lsn := range vec {
		sid := dv.StateID{Epoch: e.Epoch, LSN: lsn}
		switch {
		case e.Process != s.selfID():
			wg.Add(1)
			go func(p dv.ProcessID, sid dv.StateID) {
				defer wg.Done()
				if err := s.flushPeer(p, sid); err != nil {
					fail(err)
				}
			}(e.Process, sid)
		case e.Epoch == epoch:
			if lsn > selfLSN {
				selfLSN = lsn
			}
		default:
			if err := s.flushTo(sid); err != nil {
				fail(err)
			}
		}
	}
	if err := s.flushTo(dv.StateID{Epoch: epoch, LSN: selfLSN}); err != nil {
		fail(err)
	}
	wg.Wait()
	return firstErr
}

// flushPeer settles one dependency on a peer MSP's state, with at most one
// deadline-bounded flush call over the network. It converges to one of
// three outcomes: the state is durable (nil), the dependency is an orphan
// (the peer said so, or its recovery broadcast arrived meanwhile), or the
// peer stays unreachable past the deadline (errUnavailable — the caller
// degrades, typically to a Busy reply toward the end client, instead of
// hanging). While a peer is marked down, calls fail fast except for one
// probe at a time once per probe interval; a probe cut short by this
// MSP's halt hands its slot back.
func (s *Server) flushPeer(p dv.ProcessID, sid dv.StateID) error {
	peer := string(p)
	if !s.cfg.Domain.Contains(peer) {
		return fmt.Errorf("core: dependency on %s outside service domain", p)
	}
	// The knowledge check first: a known crashed epoch settles the
	// dependency locally — state beyond the recovered number is an orphan
	// (no amount of flushing helps); state within it survived the crash
	// and is durable forever.
	if r, ok := s.know.Lookup(p, sid.Epoch); ok {
		if sid.LSN > r {
			return errOrphanDep
		}
		return nil
	}
	br := s.peerBreaker(peer)
	ok, probe := br.Allow()
	if !ok {
		return fmt.Errorf("core: peer %s marked down: %w", p, errUnavailable)
	}
	err := s.callFlush(peer, sid)
	if errors.Is(err, rpc.ErrStopped) {
		br.ProbeAborted(probe)
	}
	if errors.Is(err, errUnavailable) && s.know.IsOrphan(p, sid) {
		// The peer's broadcast raced the deadline: orphan beats timeout.
		return errOrphanDep
	}
	return err
}

// flushTo services a flush request for this MSP's own state (local part
// of a distributed flush, or a peer's request): state from the current
// epoch is flushed; state from an earlier epoch either already survived
// (≤ the recovered state number) or is an orphan.
func (s *Server) flushTo(sid dv.StateID) error {
	st := s.getState()
	epoch := s.epoch.Load()
	if st == stateCrashed || st == stateRecovering {
		return errUnavailable
	}
	switch {
	case sid.Epoch == epoch:
		if wal.LSN(sid.LSN) >= s.log.Next() {
			// A state number this incarnation never assigned: the
			// dependency refers to state that cannot exist (it belonged
			// to a lost incarnation). Epoch durability makes this
			// unreachable; report the dependency unsatisfiable.
			return errOrphanDep
		}
		if err := s.log.Flush(wal.LSN(sid.LSN)); err != nil {
			return fmt.Errorf("%w: %w", errLogDown, err)
		}
		return nil
	case sid.Epoch < epoch:
		if s.know.IsOrphan(s.selfID(), sid) {
			return errOrphanDep
		}
		return nil // survived the crash; already durable
	default:
		return errUnavailable
	}
}

// sweepOrphanSessions starts orphan recovery for every idle session whose
// DV has become an orphan. Busy sessions are caught at their next
// interception point.
func (s *Server) sweepOrphanSessions() {
	var found []*Session
	s.sessions.forEach(func(sess *Session) {
		if sess.beginRecoveryIfOrphan() {
			found = append(found, sess)
		}
	})
	for _, sess := range found {
		sess := sess
		if !s.goBackground(func() { s.recoverOrphan(sess) }) {
			sess.finishRecovery()
		}
	}
}

// maybeMSPCheckpoint takes a fuzzy MSP checkpoint if enough log has been
// written since the last one. The checkpoint runs concurrently with
// request processing ("ongoing session activities are not blocked").
func (s *Server) maybeMSPCheckpoint() {
	if !s.cfg.Logging || s.cfg.MSPCkptEvery <= 0 {
		return
	}
	if s.bytesSinceCkpt.Load() < s.cfg.MSPCkptEvery {
		return
	}
	if !s.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	if !s.goBackground(func() {
		defer s.ckptRunning.Store(false)
		if err := s.writeMSPCheckpoint(); err != nil {
			return
		}
		s.forceStaleCheckpoints()
	}) {
		s.ckptRunning.Store(false)
	}
}

// writeMSPCheckpoint takes a fuzzy MSP checkpoint (§3.4): the knowledge of
// recovered state numbers goes into the checkpoint record, and the
// checkpoint's LSN and the new log head into the log anchor. The paper's
// per-unit list of checkpoint positions is not written: recovery needs only
// their minimum, which is the head.
//
// The new log head is the minimal position over every recovery starting
// point, additionally clamped at the barrier — the log's append position
// captured BEFORE the table scan. The clamp is what makes the fuzzy
// checkpoint safe against the striped table: a session inserted after
// its shard was scanned (invisible to the checkpoint) appends its
// SessionStart at an LSN ≥ its startPin ≥ the barrier, so the head never
// advances past it; a session scanned while still starting (visible but
// without a published start LSN) pins the head at its startPin — the
// recovery scan, which starts at the head, finds its SessionStart record
// directly.
func (s *Server) writeMSPCheckpoint() error {
	barrier := s.log.Next()
	ck := logrec.MSPCheckpoint{
		Epoch:     s.epoch.Load(),
		Knowledge: s.know.Snapshot(),
	}
	head := barrier
	lower := func(p wal.LSN) {
		if p != 0 && p < head {
			head = p
		}
	}
	s.sessions.forEach(func(sess *Session) {
		cp, start, pin := sess.ckptPositions()
		if cp == 0 && start == 0 {
			// Still starting: its SessionStart append is in flight.
			lower(pin)
			return
		}
		sess.bumpMSPCkptAge()
		if cp != 0 {
			lower(cp)
		} else {
			lower(start)
		}
	})
	for _, sv := range s.shared {
		cp, first := sv.ckptPositions()
		sv.bumpMSPCkptAge()
		if cp != 0 {
			lower(cp)
		} else {
			lower(first)
		}
	}

	ckPayload := ck.Encode()
	digest := s.tapDigest(ckPayload)
	lsn, _, err := s.appendRec(logrec.TMSPCheckpoint, ckPayload)
	if err != nil {
		return err
	}
	if err := s.log.Flush(lsn); err != nil {
		return err
	}
	if err := s.evalCrashPoint(FPCkptBeforeAnchor); err != nil {
		return err
	}
	if err := s.log.WriteAnchor(wal.Anchor{Epoch: s.epoch.Load(), CheckpointLSN: lsn, Head: head}); err != nil {
		if failpoint.IsInjected(err) {
			s.halt() // a torn anchor write means the process died mid-update
		}
		return err
	}
	if err := s.evalCrashPoint(FPCkptBeforeTruncate); err != nil {
		return err
	}
	// Only after the anchor is durable may the old records be discarded;
	// whole segments below the head are physically deleted.
	if err := s.log.TruncateHead(head); err != nil {
		if failpoint.IsInjected(err) {
			s.halt() // a crash between segment deletions; recovery re-truncates
		}
		return err
	}
	s.sessions.dropTombstones(head)
	s.bytesSinceCkpt.Store(0)
	s.stats.MSPCkpts.Add(1)
	if tap := s.cfg.Tap; tap != nil {
		tap.StateDigest(s.cfg.ID, "msp-ckpt", s.epoch.Load(), uint64(lsn), digest)
	}
	return nil
}

// forceStaleCheckpoints forces a checkpoint for sessions and shared
// variables that have not checkpointed across several MSP checkpoints, so
// the minimal LSN (the crash-recovery scan start) keeps advancing (§3.4).
func (s *Server) forceStaleCheckpoints() {
	if s.cfg.ForceCkptAfter <= 0 {
		return
	}
	var staleSessions []*Session
	var staleVars []*SharedVar
	s.sessions.forEach(func(sess *Session) {
		if sess.mspCkptAge() >= s.cfg.ForceCkptAfter {
			staleSessions = append(staleSessions, sess)
		}
	})
	for _, sv := range s.shared {
		if sv.mspCkptAge() >= s.cfg.ForceCkptAfter && sv.written() {
			staleVars = append(staleVars, sv)
		}
	}
	for _, sess := range staleSessions {
		if !sess.tryAcquire() {
			continue // busy or recovering; it will checkpoint on its own
		}
		_ = s.checkpointSession(sess)
		sess.release()
	}
	for _, sv := range staleVars {
		sv.checkpoint(true)
	}
}

// checkpointSession takes a session checkpoint (§3.2): a distributed log
// flush per the session's DV (so the checkpointed state can never be an
// orphan), then one record holding the complete session state. The caller
// must hold the session (acquired).
func (s *Server) checkpointSession(sess *Session) error {
	if err := s.flushSessionDV(sess); err != nil {
		return err
	}
	rec := sess.checkpointRecord()
	payload := rec.Encode()
	digest := s.tapDigest(payload)
	lsn, _, err := s.appendRec(logrec.TSessionCkpt, payload)
	if err != nil {
		return err
	}
	sess.completeCheckpoint(lsn)
	s.stats.SessionCkpts.Add(1)
	if tap := s.cfg.Tap; tap != nil {
		tap.StateDigest(s.cfg.ID, "session-ckpt/"+sess.id, s.epoch.Load(), uint64(lsn), digest)
	}
	return nil
}
