package rpc

import (
	"sync"
	"time"

	"mspr/internal/simtime"
)

// Client-side overload control: the per-server circuit breaker that
// Call consults through CallOptions. It exists to turn a saturated
// server's shed replies into *less* offered load instead of more — the
// unbounded Busy-resend loop the paper's §5.4 client uses is correct for
// transient recovery pauses but amplifies a genuine overload (every shed
// mints a future resend), so after a run of sheds the breaker fails calls
// fast and lets one probe at a time through until the server answers.

// BreakerState is the circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed passes all traffic; consecutive sheds are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails all calls fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe call through; its outcome
	// closes the breaker again or re-opens it for another cooldown.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a per-server circuit breaker. It opens after Threshold
// consecutive sheds (Busy/Overloaded replies), fails calls fast for a
// cooldown on the simtime clock, then half-opens: one probe call is
// admitted, and its outcome decides between closing and re-opening. Safe
// for concurrent use; share one per target server.
//
// An MSP also meters each domain peer with one, driven by hand rather
// than through CallOptions.Breaker (a Busy reply from a recovering peer
// is no reason to stop asking it): there, Shed means a control call
// missed its deadline, with threshold 1 the peer is down at the first
// miss, and any message from the peer is a Success.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	state     BreakerState
	sheds     int // consecutive sheds while closed
	openedAt  time.Time
	probe     uint64 // nonzero: token of the half-open probe in flight
	probeSeq  uint64 // last granted probe token
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive sheds and half-opens cooldown later on the simtime clock,
// the clock deadlines are stamped on.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 50 * time.Millisecond
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Clone returns a fresh, closed breaker with the same parameters — how
// core.Client derives a per-server breaker from a configured template.
func (b *Breaker) Clone() *Breaker { return NewBreaker(b.threshold, b.cooldown) }

// Allow reports whether a call may be sent now. While open it returns
// false until the cooldown elapses, then transitions to half-open and
// admits a single probe; further calls fail fast until that probe
// settles through Success or Shed, or is released by ProbeAborted.
//
// The second result is nonzero when the caller was admitted AS the
// probe. A probe-holder must not re-consult Allow for resends of the
// same call (the resends are the probe), and must hand the token back
// through ProbeAborted if the call ends without settling — otherwise
// the slot leaks and the breaker wedges half-open, refusing every
// future call.
func (b *Breaker) Allow() (ok bool, probe uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		if simtime.Since(b.openedAt) < b.cooldown {
			return false, 0
		}
		b.state = BreakerHalfOpen
		return true, b.grantProbe()
	default: // BreakerHalfOpen
		if b.probe != 0 {
			return false, 0
		}
		return true, b.grantProbe()
	}
}

// grantProbe hands out the half-open probe slot under b.mu, returning a
// fresh token. Tokens are never reused, so a stale ProbeAborted from a
// call whose slot has since been settled or re-granted cannot release
// someone else's probe.
func (b *Breaker) grantProbe() uint64 {
	b.probeSeq++
	b.probe = b.probeSeq
	return b.probe
}

// ProbeAborted releases the half-open probe slot identified by probe
// without recording an outcome: the probing call was abandoned (client
// deadline, attempt bound, closed reply stream) before any reply
// settled it. The breaker stays half-open and the next Allow admits a
// fresh probe. Stale or zero tokens are ignored.
func (b *Breaker) ProbeAborted(probe uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe != 0 && b.state == BreakerHalfOpen && b.probe == probe {
		b.probe = 0
	}
}

// Success records a terminal outcome: the breaker closes and the shed
// streak resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.sheds = 0
	b.probe = 0
}

// Shed records a Busy/Overloaded reply. In the closed state it counts
// toward the threshold; a shed probe re-opens the breaker for another
// cooldown. It reports whether the breaker opened; the breaker's user
// counts that in its own metric.
func (b *Breaker) Shed() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.sheds++
		if b.sheds < b.threshold {
			return false
		}
	case BreakerOpen:
		return false
	}
	b.state = BreakerOpen
	b.openedAt = simtime.Now()
	b.sheds = 0
	b.probe = 0
	return true
}

// State returns the breaker's current position (for tests and reports).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
