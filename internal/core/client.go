package core

import (
	"fmt"
	"sync"

	"mspr/internal/rpc"
	"mspr/internal/simnet"
)

// clientCore is what every end client is made of: an endpoint with the
// receive loop that routes replies to the waiting session, the call
// options with the circuit breakers they fan out to per target, the
// oracle's tap, and the one request driver (clientWire.drive). Client adds
// nothing to it; DurableClient adds its journal.
type clientCore struct {
	id      string
	ep      *simnet.Endpoint
	opts    rpc.CallOptions
	tap     ClientTap
	replies rpc.Router[string, rpc.Reply] // keyed by session ID

	mu      sync.Mutex
	ctl     map[string]*rpc.Breaker // per target server; see wire
	counter uint64                  // last session number handed out
	stopped bool
	stop    chan struct{}
}

// start attaches the client to the network at address id and starts its
// receive loop. When opts carries a Breaker, it is a per-server template:
// each distinct target gets its own clone.
func (c *clientCore) start(id string, net *simnet.Network, opts rpc.CallOptions) {
	c.id, c.ep, c.opts = id, net.Endpoint(simnet.Addr(id)), opts
	c.ctl = make(map[string]*rpc.Breaker)
	c.stop = make(chan struct{})
	go rpc.Serve(c.ep, c.stop, func(m simnet.Message) {
		if rep, ok := m.Payload.(rpc.Reply); ok {
			c.replies.Resolve(rep.Session, rep)
		}
	})
}

// SetTap attaches the correctness oracle's client-side observation tap
// (see internal/oracle). Call it before issuing requests; sessions share
// the client's tap. A nil tap (the default) records nothing.
func (c *clientCore) SetTap(t ClientTap) { c.tap = t }

// Close stops the client's receive loop and ends every call in flight
// with rpc.ErrStopped, which leaves its sequence number open.
func (c *clientCore) Close() {
	c.mu.Lock()
	if !c.stopped {
		c.stopped = true
		close(c.stop)
	}
	c.mu.Unlock()
}

// nextSessionID mints the ID of a new session of this client.
func (c *clientCore) nextSessionID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counter++
	return fmt.Sprintf("%s#%d", c.id, c.counter)
}

// wire connects session id to the MSP at target: replies to the session
// are routed to the wire, and its call options are the client's with the
// Breaker (if configured) replaced by the one all of this client's
// sessions to target share — so a shedding server throttles the whole
// client, not one session at a time, and sheds from one server never
// open the breaker toward another.
func (c *clientCore) wire(id, target string) clientWire {
	opts := c.opts
	if opts.Breaker != nil {
		c.mu.Lock()
		b, ok := c.ctl[target]
		if !ok {
			b = opts.Breaker.Clone()
			c.ctl[target] = b
		}
		c.mu.Unlock()
		opts.Breaker = b
	}
	return clientWire{c: c, id: id, target: target, opts: opts, replies: c.replies.Register(id)}
}

// clientWire is one session's line to its MSP, as the request driver
// needs it.
type clientWire struct {
	c       *clientCore
	id      string
	target  string
	opts    rpc.CallOptions
	replies <-chan rpc.Reply
}

// ID returns the session identifier.
func (w *clientWire) ID() string { return w.id }

// drive sends one request of the session — request seq, or with end set
// the session's End under that number — resending it until a reply
// settles it. It reports the exchange to the tap: the invocation, unless
// retry says the caller is re-driving one reported earlier (possibly by a
// crashed predecessor), every resend, and the terminal reply. An End is
// no service request and is not reported.
//
// A nil or *rpc.AppError error is terminal (see isTerminal): the request
// executed, and the caller advances the sequence number. Any other error
// — including the overload-control outcomes ErrCircuitOpen and
// ErrDeadlineExceeded, and ErrStopped from Close — leaves it open: the
// request may still execute server-side, so a later drive must send the
// identical request again, or fetch the buffered reply through the
// duplicate path.
func (w *clientWire) drive(seq uint64, method string, arg []byte, end, retry bool) ([]byte, error) {
	req := rpc.Request{
		Session:    w.id,
		Seq:        seq,
		Method:     method,
		Arg:        arg,
		NewSession: seq == 1,
		EndSession: end,
		From:       w.c.ep.Addr(),
	}
	tap := w.c.tap
	if end {
		tap = nil
	}
	if tap != nil && !retry {
		tap.ClientInvoke(w.id, method, seq, arg)
	}
	attempts := 0
	rep, err := rpc.Exchange(func(r rpc.Request) {
		if attempts++; tap != nil && (retry || attempts > 1) {
			tap.ClientRetry(w.id, seq, attempts)
		}
		w.c.ep.Send(simnet.Addr(w.target), r) //mspr:flushed-by none (client request: end clients have no log; a durable client journals the intent before it drives)
	}, w.replies, w.c.stop, req, w.opts)
	if err != nil {
		return nil, err
	}
	if tap != nil && rep.Status != rpc.StatusRejected {
		tap.ClientReply(w.id, seq, rep.Status == rpc.StatusOK, rep.Payload)
	}
	return rep.Result()
}

// isTerminal reports whether an error is a definitive outcome of the
// request (the request executed, or can never execute), after which the
// sequence number advances.
func isTerminal(err error) bool {
	if err == nil {
		return true
	}
	_, ok := err.(*rpc.AppError)
	return ok
}

// Client is an end client process (§2.1): it lives outside every service
// domain, so all of its traffic is logged pessimistically by the MSPs it
// talks to. The client resends each request — with the same sequence
// number — until the reply arrives, and ignores duplicate replies; with
// the server's receive logging and reply buffering this yields
// exactly-once execution.
type Client struct{ clientCore }

// NewClient creates a client attached to the network at address id.
// When opts carries a Breaker, it is a per-server template: each distinct
// target gets its own clone (see Session).
func NewClient(id string, net *simnet.Network, opts rpc.CallOptions) *Client {
	c := &Client{}
	c.start(id, net, opts)
	return c
}

// Session starts a new session with the MSP at target. Each Session call
// creates a distinct session.
func (c *Client) Session(target string) *ClientSession {
	return &ClientSession{clientWire: c.wire(c.nextSessionID(), target), nextSeq: 1}
}

// ClientSession is one session between an end client and an MSP. A
// session processes one request at a time: Call must not be invoked
// concurrently on the same session.
type ClientSession struct {
	clientWire
	nextSeq uint64
	ended   bool
}

// Call invokes a service method, resending until the reply arrives.
// Application errors returned by the method surface as *rpc.AppError.
func (cs *ClientSession) Call(method string, arg []byte) ([]byte, error) {
	if cs.ended {
		return nil, fmt.Errorf("core: session %s already ended", cs.id)
	}
	payload, err := cs.drive(cs.nextSeq, method, arg, false, false)
	if isTerminal(err) {
		cs.nextSeq++
	}
	return payload, err
}

// End terminates the session at the server.
func (cs *ClientSession) End() error {
	if cs.ended {
		return nil
	}
	_, err := cs.drive(cs.nextSeq, "", nil, true, false)
	cs.ended = true
	cs.c.replies.Deregister(cs.id)
	return err
}
