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
// distributed flush requests, recovery broadcasts and anti-entropy
// knowledge exchanges that used to be direct in-process method calls
// now travel over the simulated network as rpc envelopes, so they can
// be lost, duplicated, reordered, delayed or partitioned away — and the
// machinery here makes the protocol survive that:
//
//   - every control request carries a sender-unique ID; the sender waits
//     in rpc.Exchange, which retransmits under the same ID every
//     CtlRetransmit, and the receiver dedups by (sender, ID), answering
//     retransmissions from a bounded reply cache;
//   - each call has a deadline; a peer that misses one is marked down by
//     opening its rpc.Breaker, after which flushes against it fail fast
//     (the end client sees Busy, not a hang), with one probe at a time
//     once per probe interval, until the peer is heard from again;
//   - recovery broadcasts are best-effort: peers missed by a broadcast
//     (partitioned, down) catch up through anti-entropy — every flush
//     reply and recovery ack piggybacks the replier's knowledge, and a
//     peer transitioning unreachable→reachable triggers an explicit
//     knowledge pull.

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

// ctlKey identifies one control request for dedup: who sent it, under
// which ID.
type ctlKey struct {
	from simnet.Addr
	id   uint64
}

// ctlCache is the bounded server-side reply cache behind control-message
// dedup: a retransmitted request is answered with the cached reply
// instead of being re-executed. Eviction is FIFO.
type ctlCache struct {
	mu    sync.Mutex
	m     map[ctlKey]any
	order []ctlKey
	cap   int
}

func newCtlCache(capacity int) *ctlCache {
	return &ctlCache{m: make(map[ctlKey]any), cap: capacity}
}

func (c *ctlCache) get(k ctlKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

func (c *ctlCache) put(k ctlKey, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; !ok {
		c.order = append(c.order, k)
		for len(c.order) > c.cap {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.m[k] = v
}

// nextCtlID mints a control-message ID that is unique across this
// process's incarnations: the current epoch occupies the high 32 bits,
// a per-incarnation counter the low 32. Plain counters would collide in
// peers' dedup caches after a restart — the first control message of the
// new incarnation (typically its recovery broadcast) would be answered
// with a stale cached reply from the crashed incarnation's ID space and
// silently dropped.
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
// alive. If the sender is a domain peer that was marked down, it comes
// back up and an anti-entropy knowledge pull is issued — the "healed
// peer pulls missed RecoveryInfo on next contact" half of broadcast
// convergence. It runs only on the receive loop.
func (s *Server) noteContact(from simnet.Addr) {
	peer := string(from)
	if peer == s.cfg.ID || !s.cfg.Domain.Contains(peer) {
		return
	}
	if br := s.peerBreaker(peer); br.State() != rpc.BreakerClosed {
		br.Success()
		s.goBackground(func() { s.pullKnowledge(peer) })
	}
}

// The kinds of control exchange. A control reply reaches its call as an
// rpc.Reply whose Session is the kind of exchange it answers and whose
// Seq is the call's ID, so rpc.Exchange drops a reply of another kind
// under the same ID as stale.
const (
	ctlFlush     = "ctl/flush"
	ctlBroadcast = "ctl/broadcast"
	ctlPull      = "ctl/pull"
)

// ctlReply converts a control reply (FlushReply, RecoveryAck or
// KnowledgeReply) to the rpc.Reply its control call waits for. A flush
// the peer could not serve yet, because it is still recovering, is Busy;
// one that found an orphan is Rejected.
func ctlReply(m any) rpc.Reply {
	switch p := m.(type) {
	case rpc.FlushReply:
		rep := rpc.Reply{Session: ctlFlush, Seq: p.ID, Known: p.Known}
		switch p.Code {
		case rpc.CtlOK:
		case rpc.CtlOrphan:
			rep.Status = rpc.StatusRejected
		default:
			rep.Status = rpc.StatusBusy
		}
		return rep
	case rpc.RecoveryAck:
		return rpc.Reply{Session: ctlBroadcast, Seq: p.ID, Known: p.Known}
	}
	p := m.(rpc.KnowledgeReply)
	return rpc.Reply{Session: ctlPull, Seq: p.ID, Known: p.Known}
}

// ctlCall is the one way this MSP asks a domain peer something and waits
// for the answer: rpc.Exchange of the kind's exchange under a fresh ID.
// env builds the request envelope from the ID once, and every resend is
// that envelope, so the peer's dedup cache recognizes it. The peer's
// replies reach Exchange through s.ctl (see ctlReply); a Busy one is
// asked again after CtlRetransmit. The model deadline is floored like
// every control-plane wait. The error is rpc.ErrDeadlineExceeded when the
// deadline passed unanswered and rpc.ErrStopped when this MSP halted.
func (s *Server) ctlCall(peer string, deadline time.Duration, kind string, env func(id uint64) any) (rpc.Reply, error) {
	id := s.nextCtlID()
	ch := s.ctl.Register(id)
	defer s.ctl.Deregister(id)
	req, to := env(id), simnet.Addr(peer)
	return rpc.Exchange(func(rpc.Request) {
		//mspr:flushed-by none (control requests ask a peer to flush, announce state made durable before recovery completed, or pull gossip: none carries unflushed log state)
		s.ep.Send(to, req)
	}, ch, s.stop, rpc.Request{Session: kind, Seq: id, Deadline: simtime.Now().Add(s.ctlWall(deadline))},
		rpc.CallOptions{ResendAfter: s.cfg.CtlRetransmit, BusyBackoff: s.cfg.CtlRetransmit, TimeScale: s.cfg.TimeScale})
}

// callFlush asks a peer to flush its log up to sid, bounded by the flush
// deadline, absorbing the knowledge the answer piggybacks. It returns nil,
// errOrphanDep, or errUnavailable: the deadline passed — the peer is then
// marked down — or this MSP stopped (wrapping rpc.ErrStopped).
func (s *Server) callFlush(peer string, sid dv.StateID) error {
	rep, err := s.ctlCall(peer, s.cfg.FlushDeadline, ctlFlush,
		func(id uint64) any { return rpc.FlushRequest{ID: id, From: s.ep.Addr(), SID: sid} })
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

// broadcastRecovery announces a recovered state number to every domain
// peer over the network, best-effort: each peer is retransmitted to until
// it acks or the broadcast deadline passes. It returns the union of the
// reachable peers' knowledge snapshots. A peer that misses the deadline
// is marked down and converges later via anti-entropy; a halt of this MSP
// meanwhile says nothing about the peers.
func (s *Server) broadcastRecovery(info dv.RecoveryInfo) []dv.RecoveryInfo {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		learned []dv.RecoveryInfo
	)
	for _, peer := range s.domainPeers() {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			rep, err := s.ctlCall(peer, s.cfg.BroadcastDeadline, ctlBroadcast,
				func(id uint64) any { return rpc.RecoveryBroadcast{ID: id, From: s.ep.Addr(), Info: info} })
			if errors.Is(err, rpc.ErrDeadlineExceeded) {
				metrics.Net.BroadcastPeersMissed.Inc()
				s.peerMissed(peer)
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

// pullKnowledge performs one anti-entropy knowledge pull against a peer,
// bounded by the broadcast deadline, and absorbs whatever comes back.
func (s *Server) pullKnowledge(peer string) {
	metrics.Net.AntiEntropyPulls.Inc()
	// An unanswered pull needs no handling: the next contact or anti-entropy
	// round pulls again.
	rep, err := s.ctlCall(peer, s.cfg.BroadcastDeadline, ctlPull,
		func(id uint64) any { return rpc.KnowledgePull{ID: id, From: s.ep.Addr()} })
	if err == nil {
		s.absorbKnowledge(rep.Known)
	}
}

// antiEntropyLoop periodically pulls knowledge from domain peers in
// round-robin order — the safety net that converges orphan detection
// even when no traffic crosses a healed partition. Runs only when
// Config.AntiEntropyEvery is positive.
func (s *Server) antiEntropyLoop() {
	every := s.ctlWall(s.cfg.AntiEntropyEvery)
	tick := make(chan struct{}, 1) // room for the one round pending when stop closes
	for next := 0; ; {
		simtime.After(every, func() { tick <- struct{}{} })
		select {
		case <-s.stop:
			return
		case <-tick:
		}
		if peers := s.domainPeers(); len(peers) > 0 {
			s.pullKnowledge(peers[next%len(peers)])
			next++
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

// handleFlushRequest services a peer's flush request: dedup first, then
// the actual flush, then a reply that piggybacks this MSP's knowledge.
// Transient (unavailable) outcomes are not cached — the peer's
// retransmission should observe recovery finishing, not a stale failure.
func (s *Server) handleFlushRequest(req rpc.FlushRequest) {
	key := ctlKey{from: req.From, id: req.ID}
	if cached, ok := s.ctlDedup.get(key); ok {
		metrics.Net.CtlDuplicates.Inc()
		s.ep.Send(req.From, cached) //mspr:flushed-by flushTo (cached reply: the original was produced after its flush)
		return
	}
	code := rpc.CtlOK
	switch err := s.flushTo(req.SID); {
	case err == nil:
	case errors.Is(err, errOrphanDep):
		code = rpc.CtlOrphan
	default:
		code = rpc.CtlUnavailable
	}
	rep := rpc.FlushReply{ID: req.ID, Code: code, Known: s.know.Snapshot()}
	if code != rpc.CtlUnavailable {
		s.ctlDedup.put(key, rep)
	}
	s.ep.Send(req.From, rep)
}

// handleRecoveryBroadcast services a peer's recovery announcement:
// dedup, absorb the info (logging it and sweeping sessions for
// orphans), ack with this MSP's knowledge snapshot.
func (s *Server) handleRecoveryBroadcast(b rpc.RecoveryBroadcast) {
	key := ctlKey{from: b.From, id: b.ID}
	if cached, ok := s.ctlDedup.get(key); ok {
		metrics.Net.CtlDuplicates.Inc()
		s.ep.Send(b.From, cached) //mspr:flushed-by none (knowledge is monotone gossip, re-learnable from the recovering process itself)
		return
	}
	s.absorbKnowledge([]dv.RecoveryInfo{b.Info})
	rep := rpc.RecoveryAck{ID: b.ID, Known: s.know.Snapshot()}
	s.ctlDedup.put(key, rep)
	s.ep.Send(b.From, rep) //mspr:flushed-by none (knowledge is monotone gossip, re-learnable from the recovering process itself)
}

// handleKnowledgePull answers an anti-entropy pull with the current
// knowledge snapshot. Not cached: the snapshot should be fresh.
func (s *Server) handleKnowledgePull(p rpc.KnowledgePull) {
	//mspr:flushed-by none (knowledge is monotone gossip, re-learnable from the recovering process itself)
	s.ep.Send(p.From, rpc.KnowledgeReply{ID: p.ID, Known: s.know.Snapshot()})
}
