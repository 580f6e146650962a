// Package simnet simulates the network of the paper's experimental setup
// (§2.1, §5.1): message communication between a client and an MSP is
// unreliable — messages may arrive out of order, be duplicated, or get
// lost — while MSPs inside a service domain enjoy fast, reliable links.
//
// The network is in-process: endpoints exchange messages through buffered
// channels, with a configurable one-way latency (scaled by TimeScale like
// every other model latency), optional random loss/duplication, and
// optional reordering jitter. A crashed process marks its endpoint down;
// messages delivered to a down endpoint vanish, exactly like packets sent
// to a dead machine.
package simnet

import (
	"math/rand"
	"sync"
	"time"

	"mspr/internal/metrics"
	"mspr/internal/simtime"
)

// Addr identifies an endpoint on the network.
type Addr string

// Message is a delivered network message. Payload is an arbitrary value;
// higher layers define envelope types (see internal/rpc).
type Message struct {
	From    Addr
	To      Addr
	Payload any
}

// Config describes the network's behaviour. The zero value is a reliable,
// zero-latency network.
type Config struct {
	// OneWay is the default one-way message latency (model time). The
	// paper measures MSP↔MSP round trips of 3.596 ms and client↔MSP round
	// trips of 3.9 ms; per-link overrides set those precisely.
	OneWay time.Duration
	// TimeScale multiplies every latency before sleeping (0 disables).
	TimeScale float64
	// LossRate is the probability a message is silently dropped.
	LossRate float64
	// DupRate is the probability a message is delivered twice.
	DupRate float64
	// ReorderJitter adds a uniform random extra delay in [0, ReorderJitter)
	// to each delivery, which reorders closely spaced messages.
	ReorderJitter time.Duration
	// Seed seeds the fault-injection RNG (0 means a fixed default).
	Seed int64
}

// LinkFaults overrides the network-wide fault model for one *directed*
// link. A link with an entry uses the entry's loss/dup rates instead of
// the global ones, adds ExtraDelay to the latency, and drops everything
// when Blocked. Because entries are directional, asymmetric (gray)
// failures — A reaches B but B's replies vanish — are expressed by
// setting faults on one direction only.
type LinkFaults struct {
	// LossRate replaces the global loss probability on this link.
	LossRate float64
	// DupRate replaces the global duplication probability on this link.
	DupRate float64
	// ExtraDelay is added to the link's one-way latency.
	ExtraDelay time.Duration
	// Blocked drops every message on this link.
	Blocked bool
}

// Network is a set of endpoints sharing one fault/latency model. Beyond
// the static Config, the network is a runtime-mutable fault plane:
// Partition/Heal split and rejoin endpoint groups, and SetLinkFaults
// installs per-link, per-direction loss/dup/delay/block overrides.
type Network struct {
	cfg Config

	mu    sync.Mutex
	eps   map[Addr]*Endpoint
	links map[[2]Addr]time.Duration
	lf    map[[2]Addr]LinkFaults
	part  map[Addr]int // partition group per addr; absent = reaches everyone
	rng   *rand.Rand
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		cfg:   cfg,
		eps:   make(map[Addr]*Endpoint),
		links: make(map[[2]Addr]time.Duration),
		lf:    make(map[[2]Addr]LinkFaults),
		part:  make(map[Addr]int),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Partition splits the named addresses into isolated groups: a message
// between addresses in different groups is dropped. Addresses not named
// in any group keep reaching everyone (so end clients can stay connected
// while a service domain is split). Partition replaces any previous
// partition; Heal removes it.
func (n *Network) Partition(groups ...[]Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.part = make(map[Addr]int)
	for g, addrs := range groups {
		for _, a := range addrs {
			n.part[a] = g
		}
	}
}

// Heal removes the current partition. Per-link fault overrides are not
// touched; clear those with ClearLinkFaults/ClearAllLinkFaults.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.part = make(map[Addr]int)
}

// Partitioned reports whether a partition is currently in force.
func (n *Network) Partitioned() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.part) > 0
}

// SetLinkFaults installs a fault override on the directed link from→to.
// Call it twice (swapping from/to) for a symmetric fault.
func (n *Network) SetLinkFaults(from, to Addr, f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lf[[2]Addr{from, to}] = f
}

// ClearLinkFaults removes the override on the directed link from→to.
func (n *Network) ClearLinkFaults(from, to Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.lf, [2]Addr{from, to})
}

// ClearAllLinkFaults removes every per-link override.
func (n *Network) ClearAllLinkFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lf = make(map[[2]Addr]LinkFaults)
}

// SetLinkLatency overrides the one-way latency between a and b (both
// directions).
func (n *Network) SetLinkLatency(a, b Addr, oneWay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]Addr{a, b}] = oneWay
	n.links[[2]Addr{b, a}] = oneWay
}

func (n *Network) latency(from, to Addr) time.Duration {
	if d, ok := n.links[[2]Addr{from, to}]; ok {
		return d
	}
	return n.cfg.OneWay
}

// Endpoint returns (creating if needed) the endpoint at addr.
func (n *Network) Endpoint(addr Addr) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.eps[addr]
	if !ok {
		ep = &Endpoint{
			addr:  addr,
			net:   n,
			inbox: make(chan Message, 4096),
		}
		n.eps[addr] = ep
	}
	return ep
}

// send schedules delivery of a message, applying the partition, the
// link's fault override (or the global loss/duplication rates), latency
// and jitter.
func (n *Network) send(m Message) {
	n.mu.Lock()
	dst, ok := n.eps[m.To]
	if !ok {
		n.mu.Unlock()
		return
	}
	if gf, okF := n.part[m.From]; okF {
		if gt, okT := n.part[m.To]; okT && gf != gt {
			n.mu.Unlock()
			metrics.Net.PartitionDrops.Inc()
			return
		}
	}
	lat := n.latency(m.From, m.To)
	loss, dup := n.cfg.LossRate, n.cfg.DupRate
	if f, okL := n.lf[[2]Addr{m.From, m.To}]; okL {
		if f.Blocked {
			n.mu.Unlock()
			metrics.Net.BlockedDrops.Inc()
			return
		}
		loss, dup = f.LossRate, f.DupRate
		lat += f.ExtraDelay
	}
	copies := 1
	if loss > 0 && n.rng.Float64() < loss {
		copies = 0
		metrics.Net.LossDrops.Inc()
	} else if dup > 0 && n.rng.Float64() < dup {
		copies = 2
	}
	delays := make([]time.Duration, copies)
	for i := range delays {
		d := lat
		if n.cfg.ReorderJitter > 0 {
			d += time.Duration(n.rng.Int63n(int64(n.cfg.ReorderJitter)))
		}
		delays[i] = time.Duration(float64(d) * n.cfg.TimeScale)
	}
	n.mu.Unlock()

	for _, d := range delays {
		if d <= 0 {
			dst.deliver(m)
			continue
		}
		simtime.After(d, func() { dst.deliver(m) })
	}
}

// Endpoint is one process's attachment to the network.
type Endpoint struct {
	addr  Addr
	net   *Network
	inbox chan Message

	mu   sync.Mutex
	down bool
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Send transmits payload to addr. Delivery is asynchronous and, depending
// on the network configuration, unreliable.
//
//mspr:blocking may stall on the simulated network's delivery machinery
func (e *Endpoint) Send(to Addr, payload any) {
	e.net.send(Message{From: e.addr, To: to, Payload: payload})
}

// Recv returns the channel on which delivered messages arrive.
func (e *Endpoint) Recv() <-chan Message { return e.inbox }

// SetDown marks the endpoint down (crashed). While down, deliveries are
// discarded. Bringing the endpoint back up starts with an empty inbox of
// in-flight messages only (messages that arrived while down are lost).
func (e *Endpoint) SetDown(down bool) {
	e.mu.Lock()
	e.down = down
	if down {
		// Drain anything already queued; a crashed process loses it.
		for {
			select {
			case <-e.inbox:
			default:
				e.mu.Unlock()
				return
			}
		}
	}
	e.mu.Unlock()
}

func (e *Endpoint) deliver(m Message) {
	e.mu.Lock()
	down := e.down
	e.mu.Unlock()
	if down {
		return
	}
	select {
	case e.inbox <- m:
	default:
		// Inbox overflow models a dropped packet.
	}
}
