package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"mspr/internal/dv"
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simnet"
)

// scriptedPeer is a domain member that is nothing but an endpoint: it
// records every control request it is sent and answers each copy with
// whatever its script says (nil: the copy is lost).
type scriptedPeer struct {
	ep   *simnet.Endpoint
	stop chan struct{}

	mu   sync.Mutex
	reqs []rpc.Request // every copy received, in order
	at   []time.Time   // and when it arrived
}

// startScriptedPeer registers "peer" with the domain and starts answering.
// script sees the 1-based number of the copy and the ID it carries.
func startScriptedPeer(e *testEnv, script func(n int, id uint64) *rpc.Reply) *scriptedPeer {
	p := &scriptedPeer{ep: e.net.Endpoint("peer"), stop: make(chan struct{})}
	e.domain.register("peer")
	go rpc.Serve(p.ep, p.stop, func(m simnet.Message) {
		req, ok := m.Payload.(rpc.Request)
		if !ok || !isCtl(req.Session) {
			return
		}
		p.mu.Lock()
		p.reqs = append(p.reqs, req)
		p.at = append(p.at, time.Now())
		n := len(p.reqs)
		p.mu.Unlock()
		if rep := script(n, req.Seq); rep != nil {
			p.ep.Send(m.From, *rep)
		}
	})
	return p
}

func (p *scriptedPeer) copies() ([]uint64, []time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]uint64, len(p.reqs))
	for i, r := range p.reqs {
		ids[i] = r.Seq
	}
	return ids, append([]time.Time(nil), p.at...)
}

// callsOf counts the control calls of the given kind that reached the
// peer: the distinct IDs among its copies of such a request.
func callsOf(p *scriptedPeer, kind string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[uint64]bool{}
	for _, r := range p.reqs {
		if r.Session == kind {
			seen[r.Seq] = true
		}
	}
	return len(seen)
}

// answer is a control reply of the given kind and status under id.
func answer(kind string, id uint64, st rpc.Status, known ...dv.RecoveryInfo) *rpc.Reply {
	return &rpc.Reply{Session: kind, Seq: id, Status: st, Known: known}
}

// TestCtlCall drives the two control exchanges — flush and recovery
// broadcast — through ctlCall against a peer that loses, mangles or
// withholds its answers. Whatever the exchange, the call must retransmit
// one envelope under one ID, ignore a reply that is not its answer, give
// up at its deadline and return when the MSP stops.
func TestCtlCall(t *testing.T) {
	const retransmit = 20 * time.Millisecond
	ghost := dv.RecoveryInfo{Process: "ghost", CrashedEpoch: 1, Recovered: 5}

	// Each exchange: how to run it to completion (answered reports whether
	// the peer's answer arrived), the peer's answer, and an answer that
	// belongs to another exchange.
	exchanges := []struct {
		name     string
		run      func(s *Server) (answered bool)
		answer   func(id uint64) *rpc.Reply
		mismatch func(id uint64) *rpc.Reply
	}{
		{
			name:     "flush",
			run:      func(s *Server) bool { return s.callFlush("peer", dv.StateID{Epoch: 1}) == nil },
			answer:   func(id uint64) *rpc.Reply { return answer(ctlFlush, id, rpc.StatusOK) },
			mismatch: func(id uint64) *rpc.Reply { return answer(ctlBroadcast, id, rpc.StatusOK) },
		},
		{
			name: "broadcast",
			run: func(s *Server) bool {
				return len(s.broadcastRecovery(dv.RecoveryInfo{Process: "msp1", CrashedEpoch: 1, Recovered: 1})) == 1
			},
			answer:   func(id uint64) *rpc.Reply { return answer(ctlBroadcast, id, rpc.StatusOK, ghost) },
			mismatch: func(id uint64) *rpc.Reply { return answer(ctlFlush, id, rpc.StatusOK) },
		},
	}

	type outcome struct {
		answered bool
		took     time.Duration
		ids      []uint64
		at       []time.Time
	}
	// exchange starts msp1 with the given call deadline next to a scripted
	// peer and runs one exchange. after, if set, runs once the peer has seen
	// the first copy.
	exchange := func(t *testing.T, run func(*Server) bool, deadline time.Duration,
		script func(n int, id uint64) *rpc.Reply, after func(*Server)) outcome {
		t.Helper()
		e := newTestEnv(t)
		defer e.cleanup()
		p := startScriptedPeer(e, script)
		defer close(p.stop)
		s := e.start("msp1", counterDef(), func(c *Config) {
			c.TimeScale = 1
			c.CtlRetransmit = retransmit
			c.FlushDeadline, c.BroadcastDeadline = deadline, deadline
		})
		if after != nil {
			go func() {
				for {
					if ids, _ := p.copies(); len(ids) > 0 {
						after(s)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
		}
		start := time.Now()
		o := outcome{answered: run(s)}
		o.took = time.Since(start)
		o.ids, o.at = p.copies()
		for _, id := range o.ids {
			if id != o.ids[0] {
				t.Errorf("retransmissions carry IDs %x: want one ID for the whole call", o.ids)
				break
			}
		}
		if len(o.ids) > 0 && uint32(o.ids[0]>>32) != s.Epoch() {
			t.Errorf("call ID %x does not carry epoch %d in its high half", o.ids[0], s.Epoch())
		}
		return o
	}

	for _, x := range exchanges {
		x := x
		t.Run(x.name+"/first copies lost", func(t *testing.T) {
			o := exchange(t, x.run, 5*time.Second, func(n int, id uint64) *rpc.Reply {
				if n <= 3 {
					return nil
				}
				return x.answer(id)
			}, nil)
			if !o.answered || len(o.ids) < 4 {
				t.Fatalf("answered=%v after %d copies, want the answer to copy 4", o.answered, len(o.ids))
			}
		})
		// The drift the broadcast had: any reply under the call's ID
		// ended the wait, so one that was not the answer triggered a resend
		// at once instead of after the backoff step.
		t.Run(x.name+"/reply of another exchange", func(t *testing.T) {
			o := exchange(t, x.run, 5*time.Second, func(n int, id uint64) *rpc.Reply {
				if n == 1 {
					return x.mismatch(id)
				}
				return x.answer(id)
			}, nil)
			if !o.answered || len(o.ids) < 2 {
				t.Fatalf("answered=%v after %d copies, want the answer to copy 2", o.answered, len(o.ids))
			}
			// Copy 2 is due one retransmit interval after copy 1.
			if gap := o.at[1].Sub(o.at[0]); gap < retransmit/2 {
				t.Fatalf("copy 2 followed copy 1 after %v: the mismatched reply cut the %v backoff step short", gap, retransmit)
			}
		})
		t.Run(x.name+"/deadline", func(t *testing.T) {
			const deadline = 150 * time.Millisecond
			o := exchange(t, x.run, deadline, func(int, uint64) *rpc.Reply { return nil }, nil)
			if o.answered {
				t.Fatal("call reported an answer nobody sent")
			}
			if o.took < deadline || o.took > deadline+2*time.Second {
				t.Fatalf("call gave up after %v, want at its %v deadline", o.took, deadline)
			}
			if len(o.ids) < 2 {
				t.Fatalf("%d copies sent before the deadline, want retransmissions", len(o.ids))
			}
		})
		t.Run(x.name+"/stop", func(t *testing.T) {
			o := exchange(t, x.run, time.Minute, func(int, uint64) *rpc.Reply { return nil },
				func(s *Server) { s.halt() })
			if o.answered || o.took > 10*time.Second {
				t.Fatalf("answered=%v after %v: a halted MSP's call must return at once, not at its deadline", o.answered, o.took)
			}
		})
	}

	// The flush's own rules on top of the shared loop: a recovering peer is
	// asked again after a pause, under the same ID, until it can answer; an
	// expired deadline marks the peer down.
	t.Run("flush/peer recovering", func(t *testing.T) {
		o := exchange(t, exchanges[0].run, 5*time.Second, func(n int, id uint64) *rpc.Reply {
			if n <= 2 {
				return answer(ctlFlush, id, rpc.StatusBusy)
			}
			return answer(ctlFlush, id, rpc.StatusOK)
		}, nil)
		if !o.answered || len(o.ids) != 3 {
			t.Fatalf("answered=%v after %d copies, want OK on copy 3", o.answered, len(o.ids))
		}
	})
	t.Run("flush/deadline marks the peer down", func(t *testing.T) {
		e := newTestEnv(t)
		defer e.cleanup()
		p := startScriptedPeer(e, func(int, uint64) *rpc.Reply { return nil })
		defer close(p.stop)
		s := e.start("msp1", counterDef())
		err := s.callFlush("peer", dv.StateID{Epoch: 1})
		if !errors.Is(err, errUnavailable) || errors.Is(err, rpc.ErrDeadlineExceeded) {
			t.Fatalf("callFlush past its deadline: %v, want a plain errUnavailable", err)
		}
		if !s.PeerDown("peer") {
			t.Fatal("peer not marked down after the flush deadline")
		}
	})
	// A halt of this MSP says nothing about its peers: the broadcast it cut
	// short must not mark the silent peer down.
	t.Run("broadcast/halt is no missed peer", func(t *testing.T) {
		missed := metrics.Net.BroadcastPeersMissed.Load()
		var down bool
		exchange(t, func(s *Server) bool {
			s.broadcastRecovery(dv.RecoveryInfo{Process: "msp1", CrashedEpoch: 1, Recovered: 1})
			down = s.PeerDown("peer")
			return false
		}, time.Minute, func(int, uint64) *rpc.Reply { return nil }, func(s *Server) { s.halt() })
		if down || metrics.Net.BroadcastPeersMissed.Load() != missed {
			t.Fatalf("halt mid-broadcast: peer down=%v, BroadcastPeersMissed +%d; want neither",
				down, metrics.Net.BroadcastPeersMissed.Load()-missed)
		}
	})
	// A peer that missed a flush deadline is down: flushes against it fail
	// fast without a copy until the probe interval has passed, then one
	// probe goes through at a time. Going down is one PeerDownEvents and no
	// client-side BreakerOpens. The clock is stepped: each copy the silent
	// peer gets costs the caller more than its deadline, and the probe
	// interval passes in one advance.
	t.Run("flush/down peer", func(t *testing.T) {
		const deadline, probeEvery = 300 * time.Millisecond, time.Second
		advance := stepClock(t)
		e := newTestEnv(t)
		defer e.cleanup()
		var first uint64
		held := false
		probing, release := make(chan struct{}), make(chan struct{})
		p := startScriptedPeer(e, func(n int, id uint64) *rpc.Reply {
			if n == 1 {
				first = id
			}
			if id != first && !held { // the probe: hold it until the test has looked
				held = true
				probing <- struct{}{}
				<-release
			}
			advance(deadline + time.Millisecond)
			return nil
		})
		defer close(p.stop)
		s := e.start("msp1", counterDef(), func(c *Config) {
			c.TimeScale = 1
			c.CtlRetransmit = time.Millisecond
			c.FlushDeadline, c.PeerProbeEvery = deadline, probeEvery
		})
		downs, opens := metrics.Net.PeerDownEvents.Load(), metrics.Overload.BreakerOpens.Load()
		sid := dv.StateID{Epoch: 1}
		if err := s.flushPeer("peer", sid); !errors.Is(err, errUnavailable) || !s.PeerDown("peer") {
			t.Fatalf("flush to a silent peer: %v, down=%v; want errUnavailable and the peer down", err, s.PeerDown("peer"))
		}
		failsFast := func(when string) {
			t.Helper()
			calls := callsOf(p, ctlFlush)
			if err := s.flushPeer("peer", sid); !errors.Is(err, errUnavailable) {
				t.Fatalf("flush %s: %v, want errUnavailable", when, err)
			}
			if got := callsOf(p, ctlFlush); got != calls {
				t.Fatalf("flush %s reached the peer", when)
			}
		}
		failsFast("within the probe interval")

		advance(probeEvery)
		probe := make(chan error, 1)
		go func() { probe <- s.flushPeer("peer", sid) }()
		<-probing
		failsFast("while the probe is in flight")
		close(release)
		if err := <-probe; !errors.Is(err, errUnavailable) || !s.PeerDown("peer") {
			t.Fatalf("probe of a silent peer: %v, down=%v; want errUnavailable and the peer still down", err, s.PeerDown("peer"))
		}
		if d, o := metrics.Net.PeerDownEvents.Load()-downs, metrics.Overload.BreakerOpens.Load()-opens; d != 1 || o != 0 {
			t.Fatalf("PeerDownEvents +%d, BreakerOpens +%d; want +1 and +0", d, o)
		}
	})
	// Any message from a down peer brings it back up.
	t.Run("flush/down peer comes back", func(t *testing.T) {
		e := newTestEnv(t)
		defer e.cleanup()
		p := startScriptedPeer(e, func(int, uint64) *rpc.Reply { return nil })
		defer close(p.stop)
		s := e.start("msp1", counterDef(), func(c *Config) { c.CtlRetransmit = retransmit })
		s.peerMissed("peer")
		p.ep.Send("msp1", "alive")
		waitFor(t, 5*time.Second, "a message from the peer to bring it up", func() bool { return !s.PeerDown("peer") })
	})
	// A peer that missed a broadcast's deadline is announced to again, a
	// probe interval after the miss, until it acks; its ack's knowledge is
	// absorbed and ends the announcing. The clock is stepped: the first
	// call's only copy pushes the clock past its deadline, so the peer
	// decides which call misses.
	t.Run("broadcast/missed peer", func(t *testing.T) {
		const deadline, probeEvery = 300 * time.Millisecond, 100 * time.Millisecond
		advance := stepClock(t)
		info := dv.RecoveryInfo{Process: "msp1", CrashedEpoch: 1, Recovered: 1}
		start := func(probeEvery time.Duration, script func(n int, id uint64) *rpc.Reply) (*testEnv, *scriptedPeer, *Server) {
			e := newTestEnv(t)
			p := startScriptedPeer(e, script)
			s := e.start("msp1", counterDef(), func(c *Config) {
				c.TimeScale = 1
				c.CtlRetransmit = time.Millisecond
				c.BroadcastDeadline, c.PeerProbeEvery = deadline, probeEvery
			})
			return e, p, s
		}

		var first uint64
		e, p, s := start(probeEvery, func(n int, id uint64) *rpc.Reply {
			if n == 1 {
				first = id
			}
			if id == first {
				advance(deadline + time.Millisecond)
				return nil
			}
			return answer(ctlBroadcast, id, rpc.StatusOK, ghost)
		})
		defer e.cleanup()
		defer close(p.stop)
		if learned := s.broadcastRecovery(info); len(learned) != 0 || !s.PeerDown("peer") {
			t.Fatalf("broadcast to a silent peer learned %v, peer down=%v; want nothing and the peer down", learned, s.PeerDown("peer"))
		}
		waitFor(t, 5*time.Second, "the repeat's ack to be absorbed", func() bool {
			_, ok := s.know.Lookup(ghost.Process, ghost.CrashedEpoch)
			return ok
		})
		ids, at := p.copies()
		i := slices.IndexFunc(ids, func(id uint64) bool { return id != ids[0] })
		if gap := at[i].Sub(at[i-1]); gap < probeEvery {
			t.Fatalf("the repeat followed the missed call after %v, want at least the %v probe interval", gap, probeEvery)
		}
		time.Sleep(3 * probeEvery)
		if n := callsOf(p, ctlBroadcast); n != 2 {
			t.Fatalf("%d announcements, want the missed one and the acked repeat", n)
		}

		// Crash while the repeat waits for its probe interval returns at
		// once, not after it. (A Crash that hangs is left behind: cleaning
		// up would hang with it.)
		_, p, s = start(time.Minute, func(int, uint64) *rpc.Reply {
			advance(deadline + time.Millisecond)
			return nil
		})
		s.broadcastRecovery(info)
		crashed := make(chan struct{})
		go func() { s.Crash(); close(crashed) }()
		select {
		case <-crashed:
			close(p.stop)
		case <-time.After(5 * time.Second):
			t.Fatal("Crash did not return while a missed peer's repeat was waiting")
		}
	})
}
