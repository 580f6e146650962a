package core

import (
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simtime"
)

// Admission control: the bounded gate between the network and the worker
// pool. The paper assumes the server eventually gets to every logged
// interaction; under saturation "eventually" needs defending. The gate
// sheds excess work at enqueue time — before any durable effect — with an
// explicit StatusOverloaded reply, instead of the old silent counted drop
// that left the client waiting out its resend timer.
//
// Three lanes feed the pool (Server.worker). The small priority lane,
// because a flood of new client work must not starve the traffic recovery
// depends on: requests that touch sessions still owed a replay since the
// last crash (instant recovery's lazy-replay claims) and requests arriving
// while the server itself is still recovering. It is strict: a worker
// empties it before it looks at anything else. The normal lane: everything
// else is new work. And the sweep lane, which carries no requests: after
// a crash recovery, Server.recoverySweep offers on it, unbuffered, the
// sessions no request has claimed yet. Every worker listens to it, but the
// sweep has at most sweepShare(Workers) units on offer or in replay at
// once — three quarters of the pool — so at every instant the rest of the
// workers are outside any sweep unit and a request always finds one; and
// between it and the normal lane a worker picks fairly, so a flood of new
// work slows the drain and cannot park it.
// Domain control traffic (flush requests and recovery broadcasts) never
// queues here at all — receiveLoop dispatches it to dedicated goroutines
// — so the control plane is one more lane, unbounded by this gate.
//
// A propagated deadline is checked here, on arrival, and nowhere else. A
// request that expires later, while it waits in a lane, still executes
// and is logged: the client's ErrDeadlineExceeded promises nothing about
// the server side, and its resend under the same sequence number is
// answered from the reply buffer, so the late execution costs work, not
// exactly-once.

// Default admission-lane capacities (see Config.RequestQueueDepth and
// Config.PriorityQueueDepth). Exported so harnesses that bound one lane
// explicitly can compute the combined capacity ceiling.
const (
	DefaultRequestQueueDepth  = 4096
	DefaultPriorityQueueDepth = 256
)

// admit routes an incoming request into an admission lane or sheds it.
// Shed points, in order: the propagated deadline (expired work is
// dropped before it can occupy queue space), then lane capacity. Both
// sheds answer immediately (best-effort) with StatusOverloaded so the
// client backs off at once instead of waiting out its resend timer.
func (s *Server) admit(req rpc.Request) {
	if !req.Deadline.IsZero() && simtime.Now().After(req.Deadline) {
		metrics.Overload.ShedExpired.Inc()
		s.replyOverloaded(req)
		return
	}
	if req.NewSession {
		s.sessions.shard(req.Session).arriving.Add(1) // until served: see sessionShard
	}
	if s.laneFor(req) == lanePriority {
		select {
		case s.prioCh <- req:
			metrics.Overload.Admitted.Inc()
			metrics.Overload.AdmittedPriority.Inc()
			s.observeQueueDepth()
			return
		default:
			// Priority lane full: recovery traffic still rides the normal
			// lane rather than being shed outright — executing late beats
			// a shed that sends the client into a backoff for work the
			// server WILL get to. But the fallback queues at the tail
			// behind up to a full normal lane of new work, so the demotion
			// is counted: priorityOverflow rising under load is the
			// starvation signal storms and the chaos report watch for.
			metrics.Overload.PriorityOverflow.Inc()
		}
	}
	select {
	case s.reqCh <- req:
		metrics.Overload.Admitted.Inc()
		s.observeQueueDepth()
	default:
		// Both lanes full: shed. The client learns immediately instead
		// of timing out.
		metrics.Overload.ShedAtAdmission.Inc()
		if req.NewSession {
			s.sessions.shard(req.Session).arriving.Add(-1)
		}
		s.replyOverloaded(req)
	}
}

// admissionLane classifies a request's queue.
type admissionLane int

const (
	laneNormal admissionLane = iota
	lanePriority
)

// laneFor picks the admission lane: priority while the server is still
// recovering (those requests resolve quickly — mostly to Busy — and
// unblock clients), and for requests addressed to a session that still
// owes a replay, whose first touch IS the lazy-replay claim instant
// recovery depends on.
func (s *Server) laneFor(req rpc.Request) admissionLane {
	if s.getState() != stateRunning {
		return lanePriority
	}
	if sess := s.sessions.get(req.Session); sess != nil && sess.pendingReplay() {
		return lanePriority
	}
	return laneNormal
}

// replyOverloaded answers a shed request, best-effort.
func (s *Server) replyOverloaded(req rpc.Request) {
	s.stats.OverloadedReplies.Add(1)
	s.reply(req.From, rpc.Reply{Session: req.Session, Seq: req.Seq, Status: rpc.StatusOverloaded})
}

// observeQueueDepth records the combined and priority backlogs on the
// peak gauges at enqueue time.
func (s *Server) observeQueueDepth() {
	metrics.Overload.QueueDepthPeak.Observe(int64(len(s.reqCh) + len(s.prioCh)))
	metrics.Overload.PriorityDepthPeak.Observe(int64(len(s.prioCh)))
}
