package core

import (
	"errors"
	"fmt"
	"hash/fnv"
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
//   - every control request carries a sender-unique ID; the sender
//     retransmits under the same ID with capped+jittered backoff, and
//     the receiver dedups by (sender, ID), answering retransmissions
//     from a bounded reply cache;
//   - each call has a deadline; a peer that stays unreachable is marked
//     down in a per-peer health table, after which flushes against it
//     fail fast (the end client sees Busy, not a hang) with periodic
//     probes until the peer answers again;
//   - recovery broadcasts are best-effort: peers missed by a broadcast
//     (partitioned, down) catch up through anti-entropy — every flush
//     reply and recovery ack piggybacks the replier's knowledge, and a
//     peer transitioning unreachable→reachable triggers an explicit
//     knowledge pull.

// Wall-clock floors applied to scaled control-plane durations: at tiny
// TimeScales a model deadline would scale to ~0 and every control call
// would give up before its first reply could arrive.
const (
	ctlRetransmitFloor = time.Millisecond
	ctlDeadlineFloor   = 25 * time.Millisecond
)

// ctlWall converts a model duration to a wall-clock one, clamped below
// by floor.
func ctlWall(d time.Duration, scale float64, floor time.Duration) time.Duration {
	s := time.Duration(float64(d) * scale)
	if s < floor {
		s = floor
	}
	return s
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

// peerHealth tracks, per domain peer, whether the peer is currently
// considered reachable. A peer goes down when a control call exhausts
// its deadline against it; while down, flushes against the peer fail
// fast except for one probe per probe interval. Any message from the
// peer — or a successful call to it — brings it back up.
type peerHealth struct {
	mu    sync.Mutex
	peers map[string]*peerStatus
}

type peerStatus struct {
	down      bool
	nextProbe time.Time
}

func newPeerHealth() *peerHealth {
	return &peerHealth{peers: make(map[string]*peerStatus)}
}

func (h *peerHealth) status(peer string) *peerStatus {
	st, ok := h.peers[peer]
	if !ok {
		st = &peerStatus{}
		h.peers[peer] = st
	}
	return st
}

// markDown records the peer unreachable; the first probe is allowed
// after probeEvery. It reports whether the peer was up before.
//
//mspr:wallclock probe scheduling is wall-clock floored by design (see file header)
func (h *peerHealth) markDown(peer string, probeEvery time.Duration) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.status(peer)
	wasUp := !st.down
	st.down = true
	st.nextProbe = time.Now().Add(probeEvery)
	return wasUp
}

// markUp records the peer reachable and reports whether it was down.
func (h *peerHealth) markUp(peer string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.status(peer)
	wasDown := st.down
	st.down = false
	return wasDown
}

// down reports whether the peer is currently considered unreachable.
func (h *peerHealth) isDown(peer string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.peers[peer]
	return ok && st.down
}

// allowCall reports whether a control call against the peer should run
// now: always for a healthy peer; for a down peer only once per probe
// interval (the probe slot is consumed).
//
//mspr:wallclock probe scheduling is wall-clock floored by design (see file header)
func (h *peerHealth) allowCall(peer string, probeEvery time.Duration) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.status(peer)
	if !st.down {
		return true
	}
	now := time.Now()
	if now.Before(st.nextProbe) {
		return false
	}
	st.nextProbe = now.Add(probeEvery)
	return true
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

// ctlSeed derives a deterministic per-call jitter seed from the server
// identity and the call ID.
func (s *Server) ctlSeed(id uint64) int64 {
	h := fnv.New64a()
	h.Write([]byte(s.cfg.ID))
	return int64(h.Sum64()) ^ int64(id)
}

// ctlBackoff builds the retransmission backoff for one control call:
// base CtlRetransmit, doubling to 16×, ±20% seeded jitter.
func (s *Server) ctlBackoff(id uint64) *rpc.Backoff {
	base := ctlWall(s.cfg.CtlRetransmit, s.cfg.TimeScale, ctlRetransmitFloor)
	return rpc.NewBackoff(base, 16*base, 0.2, s.ctlSeed(id))
}

// probeEvery returns the wall-clock probe interval for down peers.
func (s *Server) probeEvery() time.Duration {
	return ctlWall(s.cfg.PeerProbeEvery, s.cfg.TimeScale, ctlDeadlineFloor)
}

// markPeerDown transitions a peer to down in the health table.
func (s *Server) markPeerDown(peer string) {
	if s.health.markDown(peer, s.probeEvery()) {
		metrics.Net.PeerDownEvents.Inc()
	}
}

// PeerDown reports whether this server currently considers the named
// domain peer unreachable. Harnesses and tests observe degradation with
// it.
func (s *Server) PeerDown(peer string) bool { return s.health.isDown(peer) }

// noteContact records evidence that the sender of a received message is
// alive. If the sender is a domain peer that was marked down, it comes
// back up and an anti-entropy knowledge pull is issued — the "healed
// peer pulls missed RecoveryInfo on next contact" half of broadcast
// convergence.
func (s *Server) noteContact(from simnet.Addr) {
	peer := string(from)
	if peer == s.cfg.ID || !s.cfg.Domain.Contains(peer) {
		return
	}
	if s.health.markUp(peer) {
		s.goBackground(func() { s.pullKnowledge(peer) })
	}
}

// ctlVerdict is what a control call's accept function makes of a reply
// routed to the call.
type ctlVerdict int

const (
	ctlIgnore   ctlVerdict = iota // not the awaited answer: keep waiting out the current timer
	ctlAnswered                   // the call is done
	ctlResend                     // the peer is reachable but could not serve the request yet: retransmit now
)

// errCtlDeadline reports a control call whose deadline passed unanswered.
var errCtlDeadline = fmt.Errorf("core: control call deadline exceeded: %w", errUnavailable)

// ctlCall is the one way this MSP asks a domain peer something and waits
// for the answer. It mints the call's ID, builds the request once with
// mkReq — every retransmission is the same envelope under the same ID, so
// the peer's dedup cache recognizes it — and registers for the reply the
// ID routes back. Then: send, wait out the next backoff step (clamped to
// what is left of the deadline), hand every routed reply to accept, resend.
// It returns nil once accept reports ctlAnswered, errCtlDeadline when the
// (wall-clock floored) model deadline passes first, and errUnavailable
// when this MSP stops or crashes meanwhile.
//
//mspr:wallclock control-plane retransmit/deadline clocks are wall-clock floored by design (see file header)
func (s *Server) ctlCall(peer string, deadline time.Duration, mkReq func(id uint64) any, accept func(rep any) ctlVerdict) error {
	id := s.nextCtlID()
	ch := s.ctl.Register(id)
	defer s.ctl.Deregister(id)
	bo := s.ctlBackoff(id)
	until := time.Now().Add(ctlWall(deadline, s.cfg.TimeScale, ctlDeadlineFloor))
	req := mkReq(id)
	for {
		//mspr:flushed-by none (control requests ask a peer to flush, announce state made durable before recovery completed, or pull gossip: none carries unflushed log state)
		s.ep.Send(simnet.Addr(peer), req)
		wait := bo.Next()
		if rem := time.Until(until); wait > rem {
			wait = rem
		}
		timer := time.NewTimer(wait) // a wait ≤ 0 fires at once
		verdict := ctlIgnore
		for verdict == ctlIgnore {
			select {
			case <-s.stop:
				verdict = ctlResend // halt marked the MSP crashed before closing stop: the check below ends the call
			case rep := <-ch:
				verdict = accept(rep)
			case <-timer.C:
				verdict = ctlResend
			}
		}
		timer.Stop()
		switch {
		case verdict == ctlAnswered:
			return nil
		case s.getState() == stateCrashed:
			return errUnavailable
		case !time.Now().Before(until):
			return errCtlDeadline
		}
	}
}

// callFlush asks a peer to flush its log up to sid, bounded by the flush
// deadline, absorbing the knowledge any reply piggybacks. It returns nil,
// errOrphanDep, or errUnavailable (the deadline passed — the peer is then
// marked down — or this MSP stopped).
func (s *Server) callFlush(peer string, sid dv.StateID) error {
	var outcome error
	err := s.ctlCall(peer, s.cfg.FlushDeadline,
		func(id uint64) any { return rpc.FlushRequest{ID: id, From: s.ep.Addr(), SID: sid} },
		func(raw any) ctlVerdict {
			rep, ok := raw.(rpc.FlushReply)
			if !ok {
				return ctlIgnore
			}
			s.absorbKnowledge(rep.Known)
			switch rep.Code {
			case rpc.CtlOK:
			case rpc.CtlOrphan:
				outcome = errOrphanDep
			default:
				// Peer reachable but recovering: short pause, then
				// retransmit until the deadline decides.
				simtime.Sleep(ctlWall(s.cfg.CtlRetransmit, s.cfg.TimeScale, ctlRetransmitFloor))
				return ctlResend
			}
			s.health.markUp(peer)
			return ctlAnswered
		})
	if errors.Is(err, errCtlDeadline) {
		metrics.Net.FlushDeadlinesExceeded.Inc()
		s.markPeerDown(peer)
		return fmt.Errorf("core: peer %s unreachable within flush deadline: %w", peer, errUnavailable)
	}
	if err != nil {
		return err
	}
	return outcome
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
// peer over the network, best-effort: each peer is retransmitted to with
// backoff until it acks or the broadcast deadline passes. It returns the
// union of the reachable peers' knowledge snapshots. Peers missed here
// converge later via anti-entropy.
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
			var known []dv.RecoveryInfo
			err := s.ctlCall(peer, s.cfg.BroadcastDeadline,
				func(id uint64) any { return rpc.RecoveryBroadcast{ID: id, From: s.ep.Addr(), Info: info} },
				func(raw any) ctlVerdict {
					ack, ok := raw.(rpc.RecoveryAck)
					if !ok {
						return ctlIgnore
					}
					known = ack.Known
					return ctlAnswered
				})
			if err != nil {
				metrics.Net.BroadcastPeersMissed.Inc()
				s.markPeerDown(peer)
				return
			}
			s.health.markUp(peer)
			mu.Lock()
			learned = append(learned, known...)
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
	_ = s.ctlCall(peer, s.cfg.BroadcastDeadline,
		func(id uint64) any { return rpc.KnowledgePull{ID: id, From: s.ep.Addr()} },
		func(raw any) ctlVerdict {
			rep, ok := raw.(rpc.KnowledgeReply)
			if !ok {
				return ctlIgnore
			}
			s.absorbKnowledge(rep.Known)
			return ctlAnswered
		})
}

// antiEntropyLoop periodically pulls knowledge from domain peers in
// round-robin order — the safety net that converges orphan detection
// even when no traffic crosses a healed partition. Runs only when
// Config.AntiEntropyEvery is positive.
//
//mspr:wallclock control-plane retransmit/deadline clocks are wall-clock floored by design (see file header)
func (s *Server) antiEntropyLoop() {
	every := ctlWall(s.cfg.AntiEntropyEvery, s.cfg.TimeScale, ctlDeadlineFloor)
	next := 0
	for {
		select {
		case <-s.stop:
			return
		case <-time.After(every):
		}
		peers := s.domainPeers()
		if len(peers) == 0 {
			continue
		}
		s.pullKnowledge(peers[next%len(peers)])
		next++
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
