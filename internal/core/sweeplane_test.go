package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mspr/internal/metrics"
	"mspr/internal/rpc"
)

// laneProbe is the service the sweep-lane tests run. "mark" is counterDef's
// inc with a probe in front of it: while the probe is armed, a call whose
// argument is "old" — the tests make those before the crash only, so after
// it only a replay runs one — reports its session on entered and parks on
// gate. Every call appends "<arg>:<session>" to order on its way out.
type laneProbe struct {
	armed    atomic.Bool
	entered  chan string
	gate     chan struct{}
	released sync.Once

	inflight    atomic.Int64
	maxInflight metrics.MaxGauge

	mu    sync.Mutex
	order []string
}

func newLaneProbe() *laneProbe {
	return &laneProbe{entered: make(chan string, 64), gate: make(chan struct{})}
}

func (p *laneProbe) def() Definition {
	d := counterDef()
	d.Methods["mark"] = func(ctx *Ctx, arg []byte) ([]byte, error) {
		if p.armed.Load() && string(arg) == "old" {
			p.maxInflight.Observe(p.inflight.Add(1))
			p.entered <- ctx.SessionID()
			<-p.gate
			p.inflight.Add(-1)
		}
		p.mu.Lock()
		p.order = append(p.order, string(arg)+":"+ctx.SessionID())
		p.mu.Unlock()
		return d.Methods["inc"](ctx, nil)
	}
	return d
}

// release disarms the probe and lets every parked replay go. Every test
// defers it, so that one that fails with replays parked can still tear its
// MSP down.
func (p *laneProbe) release() {
	p.released.Do(func() {
		p.armed.Store(false)
		close(p.gate)
	})
}

func (p *laneProbe) orderSnapshot() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.order...)
}

// crashWithOldSessions starts "m" with the probe's service, makes one "old"
// call on each of n sessions and on the shared variable, crashes the MSP,
// arms the probe and restarts: the new incarnation's sweep parks in the
// first replays it starts.
func crashWithOldSessions(t *testing.T, e *testEnv, p *laneProbe, n int, mut ...func(*Config)) (*Server, []*ClientSession) {
	t.Helper()
	e.start("m", p.def(), mut...)
	c := e.endClient()
	sessions := make([]*ClientSession, n)
	for i := range sessions {
		sessions[i] = c.Session("m")
		mustCall(t, sessions[i], "mark", []byte("old"))
	}
	mustCall(t, sessions[0], "sharedInc", nil)
	e.srvs["m"].Crash()
	p.armed.Store(true)
	return e.start("m", e.defs["m"]), sessions
}

func (p *laneProbe) awaitEntered(t *testing.T) string {
	t.Helper()
	select {
	case id := <-p.entered:
		return id
	case <-time.After(10 * time.Second):
		t.Fatal("no sweep replay reached the probe")
		return ""
	}
}

// TestSweepHeadroomForLiveTraffic: with the sweep at its cap, every unit
// in flight held inside its replay, a request to a live session is served —
// by a worker outside any unit — without any unit finishing first, and no
// more replays run at once than the cap. Three workers make a cap of one:
// the serial sweep the parallel-recovery ablation measures.
func TestSweepHeadroomForLiveTraffic(t *testing.T) {
	for _, workers := range []int{8, 4, 3} {
		t.Run(fmt.Sprintf("Workers=%d", workers), func(t *testing.T) {
			e := newTestEnv(t)
			defer e.cleanup()
			p := newLaneProbe()
			defer p.release()
			srv, _ := crashWithOldSessions(t, e, p, 8, func(c *Config) { c.Workers = workers })
			for i := 0; i < sweepShare(workers); i++ {
				p.awaitEntered(t)
			}
			// The sweep is at its cap; the other units are still pending.
			live := e.endClient().Session("m")
			if got := asU64(mustCall(t, live, "mark", []byte("new"))); got != 1 {
				t.Fatalf("live session's first mark returned %d, want 1", got)
			}
			if got, want := srv.RecoveringSessions(), 8; got != want {
				t.Fatalf("RecoveringSessions = %d while the sweep is at its cap, want %d: a unit finished", got, want)
			}
			if got, want := int(p.maxInflight.Load()), sweepShare(workers); got != want {
				t.Fatalf("%d sweep replays ran at once, want exactly the cap %d", got, want)
			}
			p.release()
			awaitDrained(t, srv)
		})
	}
}

// TestSweepCapHoldsUnderLiveLoad: the cap, not a fixed set of sweeping
// workers, bounds the sweep. With one live request parked on a worker
// before the sweep begins — whichever worker took it — the sweep still
// reaches exactly sweepShare(workers) units in flight, and no more.
func TestSweepCapHoldsUnderLiveLoad(t *testing.T) {
	for _, workers := range []int{8, 4, 2} {
		t.Run(fmt.Sprintf("Workers=%d", workers), func(t *testing.T) {
			e := newTestEnv(t)
			defer e.cleanup()
			p := newLaneProbe()
			defer p.release()
			const n = 8
			srv, _ := crashWithOldSessions(t, e, p, n, func(c *Config) { c.Workers = workers }, noSweep)

			// A live session's "old" call parks on the probe like a replay.
			live := e.endClient().Session("m")
			go live.Call("mark", []byte("old")) // returns once the probe is released
			if id := p.awaitEntered(t); id != live.ID() {
				t.Fatalf("%s reached the probe before the sweep began, want the live session %s", id, live.ID())
			}

			var pending []*Session
			srv.sessions.forEach(func(sess *Session) {
				if sess.ID() != live.ID() {
					pending = append(pending, sess)
				}
			})
			if len(pending) != n {
				t.Fatalf("%d sessions owe a replay, want %d", len(pending), n)
			}
			srv.goBackground(func() { srv.recoverySweep(pending) })
			for i := 0; i < sweepShare(workers); i++ {
				p.awaitEntered(t)
			}
			if workers-sweepShare(workers) > 1 {
				// A worker is left: a second live request is served on it
				// while the sweep holds its cap, and no unit joins them.
				if got := asU64(mustCall(t, e.endClient().Session("m"), "mark", []byte("new"))); got != 1 {
					t.Fatalf("second live session's first mark returned %d, want 1", got)
				}
			}
			if got, want := int(p.maxInflight.Load()), sweepShare(workers)+1; got != want {
				t.Fatalf("%d calls parked at once, want the live one and exactly the cap %d", got, want-1)
			}
			p.release()
			awaitDrained(t, srv)
		})
	}
}

// TestSweepShare pins the sweep's cap: three of every whole four workers,
// never less than one, so a pool of three — the serial-recovery ablation —
// sweeps one unit at a time and a pool of 32 twenty-four.
func TestSweepShare(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{{1, 1}, {2, 1}, {3, 1}, {4, 3}, {8, 6}, {32, 24}} {
		if got := sweepShare(tc.workers); got != tc.want {
			t.Errorf("sweepShare(%d) = %d, want %d", tc.workers, got, tc.want)
		}
	}
}

// TestSweepLaneOrder: the priority lane is strict. A lone worker that comes
// out of a replay unit to find a request on each request lane and a unit on
// offer takes the priority request first.
func TestSweepLaneOrder(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	p := newLaneProbe()
	defer p.release()
	srv, sessions := crashWithOldSessions(t, e, p, 3, func(c *Config) { c.Workers = 1 })
	inUnit := p.awaitEntered(t) // the lone worker is parked in this session's replay

	// A request to a session that still owes its replay rides the priority
	// lane; a new session's first request rides the normal lane.
	var prio *ClientSession
	for _, cs := range sessions {
		if cs.ID() != inUnit {
			prio = cs
			break
		}
	}
	live := e.endClient().Session("m")
	results := make(chan error, 2)
	for _, cs := range []*ClientSession{live, prio} {
		go func(cs *ClientSession) {
			_, err := cs.Call("mark", []byte("new"))
			results <- err
		}(cs)
	}
	waitFor(t, 10*time.Second, "a request queued on each lane", func() bool {
		return len(srv.prioCh) > 0 && len(srv.reqCh) > 0 // the clients resend, so there may be more
	})
	p.release()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	awaitDrained(t, srv)

	// After the parked unit, the priority request (its session's lazy
	// replay, then the request itself) comes before everything else.
	order := p.orderSnapshot()[len(sessions):] // skip the calls made before the crash
	want := []string{"old:" + inUnit, "old:" + prio.ID(), "new:" + prio.ID()}
	if len(order) < len(want) {
		t.Fatalf("order after the crash = %v, want it to start with %v", order, want)
	}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order after the crash = %v, want it to start with %v", order, want)
		}
	}
}

// TestSweepNotStarvedBySaturatedNormalLane: only the priority lane is
// strict. With the normal lane kept full of requests to live sessions from
// before the first sweep unit finishes until the last one has, the workers
// still take units off the sweep lane, one at a time (two workers make a
// cap of one), and recovery completes.
func TestSweepNotStarvedBySaturatedNormalLane(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	p := newLaneProbe()
	defer p.release()
	sweepBefore := metrics.Recovery.SweepReplays.Load()
	const n = 64
	srv, _ := crashWithOldSessions(t, e, p, n, func(c *Config) { c.Workers = 2; c.RequestQueueDepth = 4 })
	p.awaitEntered(t) // one worker is parked in the first unit: the sweep is at its cap

	// The flood: a blocked sender on the normal lane for the rest of the
	// test, cycling over eight live sessions. Its replies go to an endpoint
	// nobody reads.
	raw := e.net.Endpoint("flood")
	stop, flooded := make(chan struct{}), make(chan int)
	go func() {
		sent := 0
		defer func() { flooded <- sent }()
		seq := make([]uint64, 8)
		for i := 0; ; i = (i + 1) % len(seq) {
			seq[i]++
			req := rpc.Request{Session: fmt.Sprintf("flood#%d", i), Seq: seq[i], Method: "inc",
				NewSession: seq[i] == 1, From: raw.Addr()}
			select {
			case srv.reqCh <- req:
				sent++
			case <-stop:
				return
			}
		}
	}()
	waitFor(t, 10*time.Second, "the normal lane to fill", func() bool { return len(srv.reqCh) == cap(srv.reqCh) })
	p.release()
	awaitDrained(t, srv)
	close(stop)
	// The sender blocks, so the lane was full throughout; that it was also
	// being served is the other half of fair. Every sweep pick was a coin
	// toss against a flood pick, so the worker that took each unit alone
	// served about n flood requests; a quarter of that is far outside the
	// toss's spread.
	if sent := <-flooded; sent < n/4 {
		t.Fatalf("only %d flood requests were served during the drain of %d units", sent, n)
	}
	if d := metrics.Recovery.SweepReplays.Load() - sweepBefore; d < n {
		t.Fatalf("SweepReplays delta = %d, want the %d sessions (no request touched them)", d, n)
	}
}

// TestSweepTeardownWithUnitsUndelivered: a crash while the feeder still
// holds most of the units returns once the in-flight replays end — at most
// the cap, none started after the crash — with no goroutine
// left on the lane (Crash waits for the feeder), and the next incarnation
// recovers every session. At one, two and eight scheduler threads.
func TestSweepTeardownWithUnitsUndelivered(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			e := newTestEnv(t)
			defer e.cleanup()
			p := newLaneProbe()
			defer p.release()
			const workers, n = 4, 16
			srv, sessions := crashWithOldSessions(t, e, p, n, func(c *Config) { c.Workers = workers })
			for i := 0; i < sweepShare(workers); i++ {
				p.awaitEntered(t)
			}

			crashed := make(chan struct{})
			go func() {
				srv.Crash()
				close(crashed)
			}()
			waitFor(t, 10*time.Second, "the crash to take hold", func() bool { return srv.getState() == stateCrashed })
			select {
			case <-crashed:
				t.Fatal("Crash returned while replays were still in flight")
			default:
			}
			p.release()
			select {
			case <-crashed:
			case <-time.After(10 * time.Second):
				t.Fatal("Crash did not return: a goroutine is stuck on the sweep lane")
			}
			if got, want := len(p.orderSnapshot())-n, sweepShare(workers); got != want {
				t.Fatalf("%d replays ran in the crashed incarnation, want the %d that were in flight", got, want)
			}

			// The next incarnation recovers every session exactly once.
			e.start("m", e.defs["m"])
			for i, cs := range sessions {
				if got := asU64(mustCall(t, cs, "mark", []byte("new"))); got != 2 {
					t.Fatalf("session %d after the torn-down sweep: mark returned %d, want 2", i, got)
				}
			}
		})
	}
}
