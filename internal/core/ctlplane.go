package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mspr/internal/dv"
	"mspr/internal/logrec"
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
	"mspr/internal/wal"
)

// This file is the server side of the intra-domain control plane: the
// distributed flush requests and recovery broadcasts that used to be
// direct in-process method calls now travel over the simulated network
// as rpc.Request and rpc.Reply, so they can be lost, duplicated,
// reordered, delayed or partitioned away — and the machinery here makes
// the protocol survive that:
//
//   - every control request carries a sender-unique ID; the sender waits
//     in rpc.Exchange, which retransmits under the same ID every
//     CtlRetransmit, and the receiver serves each copy it gets: every
//     control operation is idempotent, so a retransmission is answered
//     again, with a fresher knowledge snapshot;
//   - each call has a deadline; a peer that misses one is marked down by
//     opening its rpc.Breaker, after which flushes against it fail fast
//     (the end client sees Busy, not a hang), with one probe at a time
//     once per probe interval, until the peer is heard from again;
//   - knowledge moves one way, pushed: a recovery broadcast that misses
//     a peer's deadline (partitioned, down) is announced to that peer
//     again once a probe interval until it acks, and every flush reply
//     and recovery ack piggybacks the replier's knowledge.

// ctlDeadlineFloor is the wall-clock floor of the control plane's scaled
// deadlines and periods: at tiny TimeScales a model deadline would scale
// to ~0 and every control call would give up before its first reply could
// arrive. (A resend is floored by rpc.Exchange itself, at 1 ms.)
const ctlDeadlineFloor = 25 * time.Millisecond

// ctlWall converts a model duration of the control plane to a wall-clock
// one, at least ctlDeadlineFloor.
func (s *Server) ctlWall(d time.Duration) time.Duration {
	return max(time.Duration(float64(d)*s.cfg.TimeScale), ctlDeadlineFloor)
}

// nextCtlID mints a control-message ID that is unique across this
// process's incarnations: the current epoch occupies the high 32 bits,
// a per-incarnation counter the low 32. Plain counters would collide
// after a restart: a late answer to a call of the crashed incarnation
// would match the fresh call in s.ctl that reused its ID, and end that
// call with an answer to another question.
func (s *Server) nextCtlID() uint64 {
	return uint64(s.epoch.Load())<<32 | (s.ctlID.Add(1) & 0xffffffff)
}

// peerBreaker returns the breaker that says whether a domain peer is
// reachable: closed while it is, opened when a control call to it misses
// its deadline, half-open — one probe flush at a time — once the probe
// interval has passed. It is created closed on first use.
func (s *Server) peerBreaker(peer string) *rpc.Breaker {
	b, ok := s.peers.Load(peer)
	if !ok {
		b, _ = s.peers.LoadOrStore(peer, rpc.NewBreaker(1, s.ctlWall(s.cfg.PeerProbeEvery)))
	}
	return b.(*rpc.Breaker)
}

// peerMissed marks a peer down after a control call to it missed its
// deadline. A peer that was up counts one metrics.Net.PeerDownEvents.
func (s *Server) peerMissed(peer string) {
	br := s.peerBreaker(peer)
	if up := br.State() == rpc.BreakerClosed; br.Shed() && up {
		metrics.Net.PeerDownEvents.Inc()
	}
}

// PeerDown reports whether this server currently considers the named
// domain peer unreachable. Harnesses and tests observe degradation with
// it.
func (s *Server) PeerDown(peer string) bool {
	return s.peerBreaker(peer).State() != rpc.BreakerClosed
}

// noteContact records evidence that the sender of a received message is
// alive: a domain peer that was marked down comes back up. It runs only
// on the receive loop.
func (s *Server) noteContact(from simnet.Addr) {
	peer := string(from)
	if peer == s.cfg.ID || !s.cfg.Domain.Contains(peer) {
		return
	}
	if br := s.peerBreaker(peer); br.State() != rpc.BreakerClosed {
		br.Success()
	}
}

// The kinds of control exchange. A control request is an rpc.Request
// whose Session is its kind and whose Seq is the call's ID; the answer
// echoes both, so rpc.Exchange drops a reply of another kind under the
// same ID as stale.
const (
	ctlFlush     = "ctl/flush"
	ctlBroadcast = "ctl/broadcast"
)

// isCtl reports whether an envelope's Session names a control exchange.
func isCtl(session string) bool {
	return session == ctlFlush || session == ctlBroadcast
}

// ctlCall is the one way this MSP asks a domain peer something and waits
// for the answer: rpc.Exchange of a request of the given kind about sid,
// under a fresh ID. The peer's replies reach Exchange through s.ctl; a
// Busy one is asked again after CtlRetransmit. The model deadline is
// floored like every control-plane wait. The error is
// rpc.ErrDeadlineExceeded when the deadline passed unanswered and
// rpc.ErrStopped when this MSP halted.
func (s *Server) ctlCall(peer string, deadline time.Duration, kind string, sid dv.StateID) (rpc.Reply, error) {
	id := s.nextCtlID()
	ch := s.ctl.Register(id)
	defer s.ctl.Deregister(id)
	to := simnet.Addr(peer)
	return rpc.Exchange(func(req rpc.Request) {
		//mspr:flushed-by none (control requests ask a peer to flush, or announce state made durable before recovery completed: neither carries unflushed log state)
		s.ep.Send(to, req)
	}, ch, s.stop, rpc.Request{Session: kind, Seq: id, From: s.ep.Addr(), SID: sid, Deadline: simtime.Now().Add(s.ctlWall(deadline))},
		rpc.CallOptions{ResendAfter: s.cfg.CtlRetransmit, BusyBackoff: s.cfg.CtlRetransmit, TimeScale: s.cfg.TimeScale})
}

// callFlush asks a peer to flush its log up to sid, bounded by the flush
// deadline, absorbing the knowledge the answer piggybacks. It returns nil,
// errOrphanDep, or errUnavailable: the deadline passed — the peer is then
// marked down — or this MSP stopped (wrapping rpc.ErrStopped).
func (s *Server) callFlush(peer string, sid dv.StateID) error {
	rep, err := s.ctlCall(peer, s.cfg.FlushDeadline, ctlFlush, sid)
	switch {
	case errors.Is(err, rpc.ErrDeadlineExceeded):
		metrics.Net.FlushDeadlinesExceeded.Inc()
		s.peerMissed(peer)
		return fmt.Errorf("core: peer %s unreachable within flush deadline: %w", peer, errUnavailable)
	case err != nil:
		return fmt.Errorf("%w: %w", errUnavailable, err)
	}
	s.absorbKnowledge(rep.Known)
	if rep.Status == rpc.StatusRejected {
		return errOrphanDep
	}
	return nil
}

// domainPeers returns the other members of this MSP's domain.
func (s *Server) domainPeers() []string {
	var peers []string
	for _, id := range s.cfg.Domain.Members() {
		if id != s.cfg.ID {
			peers = append(peers, id)
		}
	}
	return peers
}

// broadcastRecovery announces a recovered state number of this MSP's to
// every domain peer over the network: each peer is retransmitted to until
// it acks or the broadcast deadline passes. It returns the union of the
// knowledge snapshots of the peers that acked in time. A peer that misses
// the deadline is marked down, and reannounce pushes the number to it in
// the background until it acks; a halt of this MSP meanwhile says nothing
// about the peers.
func (s *Server) broadcastRecovery(info dv.RecoveryInfo) []dv.RecoveryInfo {
	sid := dv.StateID{Epoch: info.CrashedEpoch, LSN: info.Recovered}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		learned []dv.RecoveryInfo
	)
	for _, peer := range s.domainPeers() {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			rep, err := s.ctlCall(peer, s.cfg.BroadcastDeadline, ctlBroadcast, sid)
			if errors.Is(err, rpc.ErrDeadlineExceeded) {
				metrics.Net.BroadcastPeersMissed.Inc()
				s.peerMissed(peer)
				s.goBackground(func() { s.reannounce(peer, sid) })
			}
			if err != nil {
				return
			}
			mu.Lock()
			learned = append(learned, rep.Known...)
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	return learned
}

// reannounce repeats a recovery announcement a peer missed, once a probe
// interval, until the peer acks — its knowledge is absorbed — or this MSP
// halts. A peer that never heard of the recovery keeps answering with
// dependency vectors that name the lost states, and this MSP keeps
// dropping those answers as orphans.
func (s *Server) reannounce(peer string, sid dv.StateID) {
	every := s.ctlWall(s.cfg.PeerProbeEvery)
	tick := make(chan struct{}, 1) // room for the one wait pending when stop closes
	for {
		simtime.After(every, func() { tick <- struct{}{} })
		select {
		case <-s.stop:
			return
		case <-tick:
		}
		if rep, err := s.ctlCall(peer, s.cfg.BroadcastDeadline, ctlBroadcast, sid); err == nil {
			s.absorbKnowledge(rep.Known)
			return
		}
	}
}

// absorbKnowledge folds recovery information learned from any control
// exchange into the knowledge table, logging what is new and sweeping
// idle sessions for orphans. During MSP crash recovery the log append is
// skipped (the analysis scan owns the log; the post-recovery checkpoint
// snapshots the knowledge anyway) and so is the sweep (every restored
// session is about to be replayed regardless).
func (s *Server) absorbKnowledge(infos []dv.RecoveryInfo) {
	if len(infos) == 0 {
		return
	}
	changed := false
	for _, info := range infos {
		if !s.know.Record(info) {
			continue
		}
		changed = true
		if s.cfg.Logging && s.log != nil && s.getState() == stateRunning {
			rec := logrec.RecoveryInfo{Process: string(info.Process), CrashedEpoch: info.CrashedEpoch,
				Recovered: wal.LSN(info.Recovered)}
			_, _, _ = s.appendRec(logrec.TRecoveryInfo, rec.Encode())
		}
	}
	if changed && s.getState() == stateRunning {
		s.sweepOrphanSessions()
	}
}

// serveCtl serves a domain peer's control request and answers it with
// this MSP's knowledge snapshot. A flush makes this MSP's log durable up
// to the request's state and answers Rejected when that state is an
// orphan and Busy when it cannot tell yet (still recovering); a
// broadcast absorbs the sender's recovered state number (logging it and
// sweeping sessions for orphans). Each is idempotent — a state already
// durable needs no flush, orphan knowledge is monotone, and
// Knowledge.Record ignores an epoch it knows — so a retransmitted copy is
// simply served again.
func (s *Server) serveCtl(req rpc.Request) {
	rep := rpc.Reply{Session: req.Session, Seq: req.Seq}
	switch req.Session {
	case ctlFlush:
		switch err := s.flushTo(req.SID); {
		case err == nil:
		case errors.Is(err, errOrphanDep):
			rep.Status = rpc.StatusRejected
		default:
			rep.Status = rpc.StatusBusy
		}
	case ctlBroadcast:
		s.absorbKnowledge([]dv.RecoveryInfo{{Process: dv.ProcessID(req.From),
			CrashedEpoch: req.SID.Epoch, Recovered: req.SID.LSN}})
	}
	rep.Known = s.know.Snapshot()
	//mspr:flushed-by flushTo (a flush is answered after it; a broadcast answer is monotone gossip, re-learnable from the recovering process itself)
	s.ep.Send(req.From, rep)
}
