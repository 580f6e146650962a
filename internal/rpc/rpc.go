// Package rpc defines the request/reply message envelopes exchanged
// between clients and MSPs, the request-sequence-number discipline that
// makes duplicate and out-of-order messages detectable (§3.1), and the
// client-side resend machinery that, combined with the server buffering
// the latest reply per session, yields exactly-once execution semantics.
//
// Over each session, the client maintains a next available request
// sequence number and the MSP a next expected one. The client resends a
// request (same sequence number) until its reply is received; the MSP
// re-sends the buffered reply for an already-executed request and ignores
// anything else out of order.
//
// Exchange is that resend loop, written once. End clients, an MSP calling
// another (Fig. 3), the StateServer baseline and the domain control plane
// wait through it.
//
// The domain control plane — distributed flush requests and recovery
// broadcasts — uses the same two envelopes.
// A control request's Session names its kind and its Seq is an ID unique
// to the sending incarnation; the answer echoes both, carries OK, Busy
// (the peer is still recovering) or Rejected (the flush found an orphan),
// and piggybacks the peer's knowledge in Known. Every control operation
// is idempotent, so a retransmission is simply served again.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"time"

	"mspr/internal/dv"
	"mspr/internal/metrics"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
)

// Status is the outcome class carried in a Reply.
type Status byte

// Reply statuses.
const (
	// StatusOK means the method executed and Payload is its result.
	StatusOK Status = iota
	// StatusAppError means the method returned an application error;
	// Payload is the error text. Errors are results too: they are
	// buffered and deduplicated exactly like successes.
	StatusAppError
	// StatusBusy means the server is checkpointing or recovering; the
	// client should sleep briefly and resend the same request (§5.4:
	// "it sleeps for 100ms and resends the request").
	StatusBusy
	// StatusRejected means the request can never succeed (unknown method
	// or session); resending is pointless.
	StatusRejected
	// StatusOverloaded means the server shed the request before doing any
	// work on it — its admission queue was full, or the request's deadline
	// had already expired. Unlike Busy (a transient server-side condition
	// the client waits out), Overloaded is an explicit back-pressure
	// signal sent at once, so the client learns of the shed without
	// waiting out its resend timer. It resends exactly as after Busy:
	// after its own jittered backoff, metered by its per-server breaker
	// and bounded by the request's deadline.
	StatusOverloaded
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusAppError:
		return "AppError"
	case StatusBusy:
		return "Busy"
	case StatusRejected:
		return "Rejected"
	case StatusOverloaded:
		return "Overloaded"
	}
	return fmt.Sprintf("Status(%d)", byte(s))
}

// Request is a service-method invocation over a session.
type Request struct {
	Session    string
	Seq        uint64
	Method     string
	Arg        []byte
	NewSession bool // first request on the session: create it server-side
	EndSession bool // ends the session after this request
	// HasDV marks an intra-domain message carrying the sending session's
	// dependency vector (Fig. 7). Cross-domain and end-client requests
	// carry none (the sender performed a distributed log flush instead).
	HasDV bool
	DV    dv.Vector
	From  simnet.Addr // reply-to address
	// SID is the state a domain control request is about: on a flush the
	// state to make durable, on a recovery broadcast the crashed epoch and
	// its recovered state number (the process is From).
	SID dv.StateID
	// Deadline, when non-zero, is the instant on the simtime clock after
	// which the client no longer wants the result. The server checks it
	// twice — at admission and again immediately before the receive log
	// append — and sheds expired work with StatusOverloaded *before* any
	// durable effect, so an expired request never owns a logged execution.
	// It is a scaled instant, not model time: every model latency the
	// request would pay is realized as a scaled wait.
	Deadline time.Time
}

// Reply answers a Request; (Session, Seq) match the request.
type Reply struct {
	Session string
	Seq     uint64
	Status  Status
	Payload []byte
	HasDV   bool
	DV      dv.Vector
	// Known is the knowledge of recovered state numbers a domain peer
	// piggybacks on its answer to a control request.
	Known []dv.RecoveryInfo
}

// ErrRejected is returned by Call when the server permanently rejects the
// request.
var ErrRejected = errors.New("rpc: request rejected by server")

// Outcomes of Exchange that end the wait without a server's answer. All
// three are NON-terminal: the request may or may not have executed
// server-side, so the caller must not advance the session's sequence
// number — a later call under the same sequence number either resends
// the identical request or fetches the buffered reply through the
// duplicate path.
var (
	// ErrStopped means the caller's stop channel closed: the client was
	// closed or crashed, or the MSP making the call crashed.
	ErrStopped = errors.New("rpc: call stopped")
	// ErrCircuitOpen means the per-server circuit breaker is open after
	// consecutive sheds: the call failed fast without touching the network.
	ErrCircuitOpen = errors.New("rpc: circuit breaker open")
	// ErrDeadlineExceeded means the request's deadline passed client-side
	// before a terminal reply arrived.
	ErrDeadlineExceeded = errors.New("rpc: request deadline exceeded")
)

// Backoff produces capped exponential retry delays with seeded jitter:
// Base, 2·Base, 4·Base … up to Max, each multiplied by a factor drawn
// uniformly from [1-Jitter, 1+Jitter]. The zero Jitter disables jitter;
// a Max at or below Base disables growth. Not safe for concurrent use —
// create one per retry loop.
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Jitter float64

	attempt int
	rng     *rand.Rand
}

// NewBackoff returns a Backoff whose jitter is seeded deterministically
// from seed. Without jitter it builds no random source.
func NewBackoff(base, max time.Duration, jitter float64, seed int64) *Backoff {
	b := &Backoff{Base: base, Max: max, Jitter: jitter}
	if jitter > 0 {
		b.rng = rand.New(rand.NewPCG(uint64(seed), 0))
	}
	return b
}

// Next returns the delay before the upcoming retry and advances the
// attempt counter.
func (b *Backoff) Next() time.Duration {
	d := b.Base
	for i := 0; i < b.attempt && d < b.Max; i++ {
		d *= 2
	}
	if b.Max > b.Base && d > b.Max {
		d = b.Max
	}
	b.attempt++
	if b.rng != nil {
		d = time.Duration(float64(d) * (1 + b.Jitter*(2*b.rng.Float64()-1)))
	}
	return d
}

// Reset restarts the backoff from Base.
func (b *Backoff) Reset() { b.attempt = 0 }

// CallOptions tunes the resend loop.
type CallOptions struct {
	// ResendAfter is the model time to wait for a reply before resending
	// the same request. It should comfortably exceed a round trip plus
	// service time.
	ResendAfter time.Duration
	// BusyBackoff is the model time to sleep after a StatusBusy reply
	// before resending (100 ms in the paper).
	BusyBackoff time.Duration
	// BusyBackoffMax, when larger than BusyBackoff, caps an exponential
	// backoff: each consecutive Busy reply doubles the sleep, from
	// BusyBackoff up to this cap; any other outcome resets the streak.
	// Zero keeps the paper's fixed backoff (the experiment default).
	BusyBackoffMax time.Duration
	// BusyJitter is the fraction of random jitter applied to each busy
	// sleep: the model duration is multiplied by a factor drawn uniformly
	// from [1-BusyJitter, 1+BusyJitter]. It de-synchronizes clients that
	// went Busy together (a recovering server sees a spread-out retry
	// wave, not a thundering herd). Zero disables jitter.
	BusyJitter float64
	// Seed perturbs the jitter's deterministic random source. The source
	// is always additionally derived from the call's session and sequence
	// number, so concurrent callers jitter differently even with the same
	// Seed, and the same call under the same Seed replays identically.
	Seed int64
	// TimeScale converts model durations to wall-clock sleeps.
	TimeScale float64
	// Timeout, when positive, is the model-time deadline for the whole
	// call: Call stamps Request.Deadline with now + Scaled(Timeout) so
	// the server can shed the request once it expires, and returns
	// ErrDeadlineExceeded once it passes client-side. Zero propagates no
	// deadline (the pre-overload-control behaviour). A Deadline the caller
	// already stamped on the request is kept either way.
	Timeout time.Duration
	// Breaker, when non-nil, is the per-server circuit breaker: Call
	// consults it before every send (failing fast with ErrCircuitOpen
	// while open), reports each shed and each terminal outcome to it,
	// and lets its half-open state meter probe traffic after a cooldown.
	// Share one breaker per target server across the client's sessions.
	Breaker *Breaker
}

// DefaultCallOptions returns the options used throughout the experiments:
// the paper's fixed 100 ms busy backoff, no growth, no jitter.
func DefaultCallOptions(timeScale float64) CallOptions {
	return CallOptions{
		ResendAfter: 500 * time.Millisecond,
		BusyBackoff: 100 * time.Millisecond,
		TimeScale:   timeScale,
	}
}

// BackoffCallOptions returns DefaultCallOptions plus capped exponential
// busy backoff (100 ms doubling to 800 ms) with ±20% seeded jitter —
// the tuning chaos clients use so that storms of Busy replies from a
// recovering server do not resend in lockstep.
func BackoffCallOptions(timeScale float64, seed int64) CallOptions {
	o := DefaultCallOptions(timeScale)
	o.BusyBackoffMax = 800 * time.Millisecond
	o.BusyJitter = 0.2
	o.Seed = seed
	return o
}

// Scaled converts a model duration to the wall-clock wait Exchange makes
// of it. No wait is shorter than 1 ms: at tiny TimeScales (0 in unit
// tests) a resend timer or a busy pause would otherwise shrink towards a
// busy-spin of resends.
func (o CallOptions) Scaled(d time.Duration) time.Duration {
	return max(time.Duration(float64(d)*o.TimeScale), time.Millisecond)
}

// CallSeed derives the jitter seed of one call from its session and
// sequence number, so concurrent calls jitter differently and the same
// call replays identically.
func CallSeed(session string, seq uint64) int64 {
	h := fnv.New64a()
	h.Write([]byte(session))
	h.Write(binary.LittleEndian.AppendUint64(nil, seq))
	return int64(h.Sum64())
}

// Call is Exchange without a stop channel, returning the reply as the
// method's result (Reply.Result).
func Call(send func(Request), replies <-chan Reply, req Request, opts CallOptions) ([]byte, error) {
	rep, err := Exchange(send, replies, nil, req, opts)
	if err != nil {
		return nil, err
	}
	return rep.Result()
}

// Result is what the called method returned, as carried by a terminal
// reply: the payload, an *AppError, or ErrRejected.
func (r Reply) Result() ([]byte, error) {
	switch r.Status {
	case StatusOK:
		return r.Payload, nil
	case StatusAppError:
		return nil, &AppError{Msg: string(r.Payload)}
	case StatusRejected:
		return nil, ErrRejected
	}
	return nil, fmt.Errorf("rpc: a %v reply carries no result", r.Status)
}

// Exchange sends req via send — every resend too, so send is where a
// caller hooks its own checks — and waits for the matching reply on
// replies, resending until a terminal reply (OK, AppError or Rejected)
// arrives, which it returns with a nil error. A reply whose session or
// sequence number is not req's is stale and discarded. After a Busy or Overloaded reply it sleeps its
// backoff and resends. Closing stop (nil: never) ends the wait with
// ErrStopped.
func Exchange(send func(Request), replies <-chan Reply, stop <-chan struct{}, req Request, opts CallOptions) (Reply, error) {
	var bo *Backoff // built on the first shed
	if opts.Timeout > 0 && req.Deadline.IsZero() {
		req.Deadline = simtime.Now().Add(opts.Scaled(opts.Timeout))
	}
	// Every exit settles the overload-control bookkeeping exactly once,
	// in one of three classes: terminal (OK/AppError/Rejected — closes
	// the breaker), shed (Busy/Overloaded — feeds the breaker's shed
	// count), or abandoned (client deadline, stop, malformed reply,
	// closed stream — no server outcome was learned, so no shed
	// accounting applies, but a held half-open probe slot MUST be handed
	// back or the breaker wedges half-open, refusing every future call
	// to this target).
	var probeTok uint64
	settle := func(terminal bool) {
		probeTok = 0 // Success/Shed release the slot breaker-side
		opts.settle(terminal)
	}
	abandon := func() {
		if probeTok != 0 {
			opts.Breaker.ProbeAborted(probeTok)
			probeTok = 0
		}
	}
	for {
		if !req.Deadline.IsZero() && simtime.Now().After(req.Deadline) {
			abandon()
			return Reply{}, ErrDeadlineExceeded
		}
		// While this call holds the half-open probe slot its resends ARE
		// the probe: it must not re-consult Allow, which would refuse the
		// call on account of its own in-flight probe.
		if opts.Breaker != nil && probeTok == 0 {
			ok, probe := opts.Breaker.Allow()
			if !ok {
				return Reply{}, ErrCircuitOpen
			}
			probeTok = probe
		}
		send(req)
		deadline := simtime.NewTimer(opts.Scaled(opts.ResendAfter))
	waiting:
		for {
			select {
			case <-stop:
				deadline.Stop()
				abandon()
				return Reply{}, ErrStopped
			case rep, ok := <-replies:
				if !ok {
					deadline.Stop()
					abandon()
					return Reply{}, errors.New("rpc: reply channel closed")
				}
				if rep.Session != req.Session || rep.Seq != req.Seq {
					continue // duplicate or stale reply: ignore
				}
				deadline.Stop()
				switch rep.Status {
				case StatusOK, StatusAppError, StatusRejected:
					settle(true)
					return rep, nil
				case StatusBusy, StatusOverloaded:
					settle(false)
					if bo == nil { // jitter seeded as CallOptions.Seed says
						bo = NewBackoff(opts.BusyBackoff, opts.BusyBackoffMax, opts.BusyJitter, opts.Seed^CallSeed(req.Session, req.Seq))
					}
					sleep(opts.Scaled(bo.Next()))
					break waiting // resend same request
				default:
					abandon()
					return Reply{}, fmt.Errorf("rpc: unknown reply status %v", rep.Status)
				}
			case <-deadline.C:
				if bo != nil {
					bo.Reset() // no shed this round: streak over
				}
				break waiting // timed out: resend the same request
			}
		}
	}
}

// settle reports a call outcome to the attached breaker: terminal
// outcomes close it; sheds feed its consecutive-shed count.
func (o CallOptions) settle(terminal bool) {
	if o.Breaker == nil {
		return
	}
	if terminal {
		o.Breaker.Success()
	} else if o.Breaker.Shed() {
		metrics.Overload.BreakerOpens.Inc()
	}
}

// sleep is a package-level indirection over simtime.Sleep so tests can
// observe the delays Exchange chooses instead of asserting on wall-clock
// elapsed time.
var sleep = simtime.Sleep

// AppError is an application-level error returned by a service method and
// transported in a reply.
type AppError struct{ Msg string }

func (e *AppError) Error() string { return "service error: " + e.Msg }

// SeqTracker implements the server side of the sequence-number discipline
// for one session: it classifies an incoming sequence number as new,
// duplicate (resend buffered reply) or ignorable.
type SeqTracker struct {
	mu   sync.Mutex
	next uint64 // next expected request sequence number
}

// NewSeqTracker returns a tracker expecting first.
func NewSeqTracker(first uint64) *SeqTracker {
	return &SeqTracker{next: first}
}

// Classification of an incoming request sequence number.
type Classification int

// Classification values.
const (
	// SeqNew is the expected next request: execute it.
	SeqNew Classification = iota
	// SeqDuplicate re-delivers the previous request: resend the buffered
	// reply.
	SeqDuplicate
	// SeqIgnore is anything else (ancient duplicate or from the future —
	// impossible for a correct client, possible for a reordered network).
	SeqIgnore
)

// Classify returns how to treat an incoming request with sequence seq.
func (t *SeqTracker) Classify(seq uint64) Classification {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case seq == t.next:
		return SeqNew
	case seq+1 == t.next:
		return SeqDuplicate
	default:
		return SeqIgnore
	}
}

// Advance moves to the next expected sequence number after executing the
// request with sequence seq.
func (t *SeqTracker) Advance(seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq+1 > t.next {
		t.next = seq + 1
	}
}

// Next returns the next expected sequence number.
func (t *SeqTracker) Next() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// SetNext restores the tracker (checkpoint reload or replay).
func (t *SeqTracker) SetNext(n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = n
}
