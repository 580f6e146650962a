package rpc

import (
	"errors"
	"slices"
	"testing"
	"time"

	"mspr/internal/simtime"
)

// stepClock steps the simtime clock for the rest of the test, so breaker
// and deadline tests assert transitions without real sleeps (which flake
// on loaded runners: a descheduled goroutine can outlast a 20 ms cooldown
// between Shed and Allow).
func stepClock(t *testing.T) func(time.Duration) {
	advance, restore := simtime.Step()
	t.Cleanup(restore)
	return advance
}

func TestBreakerStateMachine(t *testing.T) {
	advance := stepClock(t)
	b := NewBreaker(2, 20*time.Millisecond)
	allow := func() bool { ok, _ := b.Allow(); return ok }
	if b.State() != BreakerClosed || !allow() {
		t.Fatal("a new breaker must be closed and allowing")
	}
	b.Shed()
	if b.State() != BreakerClosed {
		t.Fatal("one shed below the threshold must not open the breaker")
	}
	b.Shed()
	if b.State() != BreakerOpen {
		t.Fatal("two consecutive sheds must open the breaker")
	}
	if allow() {
		t.Fatal("an open breaker must fail calls fast during the cooldown")
	}
	advance(25 * time.Millisecond)
	ok, probe := b.Allow()
	if !ok || probe == 0 {
		t.Fatal("after the cooldown one probe must be admitted, with a token")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("breaker is %v after the cooldown; want half-open", b.State())
	}
	if allow() {
		t.Fatal("only one probe may be in flight in half-open")
	}
	b.Shed() // the probe was shed: re-open
	if b.State() != BreakerOpen || allow() {
		t.Fatal("a shed probe must re-open the breaker")
	}
	advance(25 * time.Millisecond)
	if !allow() {
		t.Fatal("the next cooldown must admit another probe")
	}
	b.Success()
	if b.State() != BreakerClosed || !allow() {
		t.Fatal("a successful probe must close the breaker")
	}
	// A success resets the shed streak: one shed no longer opens it.
	b.Shed()
	if b.State() != BreakerClosed {
		t.Fatal("the shed streak must reset on success")
	}
}

func TestBreakerProbeAbortedReleasesSlot(t *testing.T) {
	advance := stepClock(t)
	b := NewBreaker(1, 20*time.Millisecond)
	b.Shed() // open
	advance(25 * time.Millisecond)
	_, probe := b.Allow()
	if probe == 0 {
		t.Fatal("setup: the post-cooldown call must hold the probe")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("setup: the probe slot must be taken")
	}
	b.ProbeAborted(probe)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("breaker is %v after an aborted probe; want still half-open", b.State())
	}
	ok, probe2 := b.Allow()
	if !ok || probe2 == 0 {
		t.Fatal("an aborted probe must free the slot for the next caller to probe")
	}
}

func TestBreakerProbeAbortedIgnoresStaleToken(t *testing.T) {
	advance := stepClock(t)
	b := NewBreaker(1, 20*time.Millisecond)
	b.Shed()
	advance(25 * time.Millisecond)
	_, stale := b.Allow()
	b.Success() // the probe settles; breaker closes
	b.ProbeAborted(stale)
	if b.State() != BreakerClosed {
		t.Fatalf("breaker is %v; a stale abort must not disturb a settled breaker", b.State())
	}
	// Open again and grant a NEW probe: the old token must not release it.
	b.Shed()
	advance(25 * time.Millisecond)
	if ok, probe := b.Allow(); !ok || probe == 0 {
		t.Fatal("setup: a fresh probe must be granted")
	}
	b.ProbeAborted(stale)
	if ok, _ := b.Allow(); ok {
		t.Fatal("a stale token must not release another call's live probe")
	}
}

func TestCallRetriesShedsUntilAnswered(t *testing.T) {
	replies := make(chan Reply, 16)
	n := 0
	send := func(r Request) {
		n++
		st := StatusOverloaded
		if n > 5 {
			st = StatusOK
		}
		replies <- Reply{Session: r.Session, Seq: r.Seq, Status: st, Payload: []byte("done")}
	}
	opts := DefaultCallOptions(0)
	opts.BusyBackoff = time.Millisecond
	out, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts)
	if err != nil || string(out) != "done" {
		t.Fatalf("got %q, %v; a shed must be resent until the server answers", out, err)
	}
}

func TestCallBreakerOpensAndFailsFast(t *testing.T) {
	// A saturated server: every copy is shed.
	replies := make(chan Reply, 16)
	sends := 0
	send := func(r Request) {
		sends++
		replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusOverloaded}
	}
	opts := DefaultCallOptions(0)
	opts.BusyBackoff = time.Millisecond
	opts.Breaker = NewBreaker(2, time.Hour)
	_, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("got %v; want ErrCircuitOpen after consecutive sheds", err)
	}
	if sends != 2 {
		t.Fatalf("server saw %d sends; want 2 before the breaker opened", sends)
	}
	// Subsequent calls fail fast without touching the network.
	_, err = Call(send, replies, Request{Session: "s", Seq: 2}, opts)
	if !errors.Is(err, ErrCircuitOpen) || sends != 2 {
		t.Fatalf("got %v after %d sends; want a fast ErrCircuitOpen with no new send", err, sends)
	}
}

func TestCallBacksOffOverloadedLikeBusy(t *testing.T) {
	// Capture the delays Call chooses instead of timing real sleeps:
	// asserting on wall-clock elapsed flakes on loaded runners, and the
	// contract under test is the CHOSEN delay, not the scheduler.
	var slept []time.Duration
	defer func(prev func(time.Duration)) { sleep = prev }(sleep)
	sleep = func(d time.Duration) { slept = append(slept, d) }
	opts := BackoffCallOptions(1, 7)
	req := Request{Session: "s", Seq: 1}
	const sheds = 4
	delays := func(st Status) []time.Duration {
		slept = nil
		replies := make(chan Reply, 16)
		n := 0
		send := func(r Request) {
			n++
			if n > sheds {
				st = StatusOK
			}
			replies <- Reply{Session: r.Session, Seq: r.Seq, Status: st}
		}
		if _, err := Call(send, replies, req, opts); err != nil {
			t.Fatal(err)
		}
		return slept
	}
	bo := NewBackoff(opts.BusyBackoff, opts.BusyBackoffMax, opts.BusyJitter, opts.Seed^CallSeed(req.Session, req.Seq))
	var want []time.Duration
	for range sheds {
		want = append(want, opts.Scaled(bo.Next()))
	}
	for _, st := range []Status{StatusBusy, StatusOverloaded} {
		if got := delays(st); !slices.Equal(got, want) {
			t.Errorf("%v replies slept %v; want the client's own backoff %v", st, got, want)
		}
	}
}

// halfOpenBreaker returns a breaker one Allow away from granting the
// half-open probe (threshold 1, cooldown elapsed on a stepped clock),
// and the clock's advance.
func halfOpenBreaker(t *testing.T) (*Breaker, func(time.Duration)) {
	advance := stepClock(t)
	b := NewBreaker(1, 20*time.Millisecond)
	b.Shed() // open
	advance(25 * time.Millisecond)
	return b, advance
}

func TestCallProbeSurvivesLostReply(t *testing.T) {
	// The half-open probe's first reply is lost; the resend loop must
	// treat the resend as part of the same probe, not re-consult Allow
	// and be refused by its own in-flight probe (which would both fail
	// the call and leak the slot, wedging the breaker half-open forever).
	b, _ := halfOpenBreaker(t)
	replies := make(chan Reply, 16)
	n := 0
	send := func(r Request) {
		n++
		if n == 1 {
			return // probe reply lost
		}
		replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusOK, Payload: []byte("ok")}
	}
	opts := DefaultCallOptions(0)
	opts.ResendAfter = time.Millisecond
	opts.Breaker = b
	out, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts)
	if err != nil || string(out) != "ok" {
		t.Fatalf("probe resend got %q, %v; want success", out, err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("breaker is %v after the probe finally succeeded; want closed", b.State())
	}
}

func TestCallReleasesProbeOnClientDeadline(t *testing.T) {
	// Same leak via the client-side deadline exit: the probe's one copy
	// costs 10 ms of the 5 ms deadline.
	b, advance := halfOpenBreaker(t)
	send := func(Request) { advance(10 * time.Millisecond) }
	replies := make(chan Reply)
	opts := DefaultCallOptions(0)
	opts.ResendAfter = time.Millisecond
	opts.Timeout = 5 * time.Millisecond
	opts.TimeScale = 1
	opts.Breaker = b
	if _, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("setup: got %v; want ErrDeadlineExceeded", err)
	}
	if ok, probe := b.Allow(); !ok || probe == 0 {
		t.Fatal("a deadline-abandoned probe must release its slot")
	}
}

func TestExchangeStopReleasesProbe(t *testing.T) {
	// Same leak via the stop channel: a server that never answers, and a
	// caller that stops waiting mid-call.
	b, _ := halfOpenBreaker(t)
	sent := make(chan struct{}, 16)
	send := func(Request) { sent <- struct{}{} }
	stop := make(chan struct{})
	opts := DefaultCallOptions(1)
	opts.Breaker = b
	done := make(chan error, 1)
	go func() {
		_, err := Exchange(send, make(chan Reply), stop, Request{Session: "s", Seq: 1}, opts)
		done <- err
	}()
	<-sent // the probe is out and its 500 ms resend timer armed
	close(stop)
	select {
	case err := <-done:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("got %v; want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exchange still waiting after stop closed")
	}
	if ok, probe := b.Allow(); !ok || probe == 0 {
		t.Fatal("a stopped probe must release its slot")
	}
}

func TestCallDeadlineExceededClientSide(t *testing.T) {
	// A server that never answers: the deadline, not the resend loop,
	// must end the call. Each copy costs 10 ms on a stepped clock, so the
	// 5 ms deadline has passed when the first resend is due.
	advance := stepClock(t)
	sends := 0
	send := func(Request) { sends++; advance(10 * time.Millisecond) }
	replies := make(chan Reply)
	opts := DefaultCallOptions(0)
	opts.ResendAfter = time.Millisecond
	opts.Timeout = 5 * time.Millisecond
	opts.TimeScale = 1
	_, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts)
	if !errors.Is(err, ErrDeadlineExceeded) || sends != 1 {
		t.Fatalf("got %v after %d sends; want ErrDeadlineExceeded before any resend", err, sends)
	}
}

func TestCallStampsDeadlineFromTimeout(t *testing.T) {
	var got Request
	replies := make(chan Reply, 1)
	send := func(r Request) {
		got = r
		replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusOK}
	}
	opts := DefaultCallOptions(0)
	opts.Timeout = time.Second
	opts.TimeScale = 1
	if _, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts); err != nil {
		t.Fatal(err)
	}
	if got.Deadline.IsZero() {
		t.Fatal("Timeout must stamp Request.Deadline for server-side shedding")
	}
	// Without a Timeout the envelope carries no deadline.
	if _, err := Call(send, replies, Request{Session: "s", Seq: 2}, DefaultCallOptions(0)); err != nil {
		t.Fatal(err)
	}
	if !got.Deadline.IsZero() {
		t.Fatal("a call without Timeout must not stamp a deadline")
	}
}

func TestStatusOverloadedString(t *testing.T) {
	if s := StatusOverloaded.String(); s != "Overloaded" {
		t.Fatalf("StatusOverloaded.String() = %q", s)
	}
}
