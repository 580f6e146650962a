package core

import (
	"sync"
	"time"
)

// Domain is a service domain (§1.3): a set of tightly associated MSPs
// with fast communication. Message exchanges within a domain use
// optimistic logging; exchanges across domains use pessimistic logging.
// The domain is the boundary for dependency-vector propagation,
// distributed log flushes and recovery-message broadcasts.
//
// The domain itself is only a membership registry. All intra-domain
// control traffic — flush requests and recovery broadcasts — travels over
// the simulated network (internal/simnet) as rpc envelopes, and is
// therefore subject to the network's full fault plane: loss,
// duplication, reordering, per-link faults and partitions.
//
// Domain membership is registry-based: a restarted Server re-registers
// under the same ID, replacing its crashed incarnation.
type Domain struct {
	name   string
	oneWay time.Duration

	mu      sync.RWMutex
	members map[string]struct{}
}

// NewDomain creates a service domain. oneWay is the model one-way latency
// of intra-domain links (control traffic and MSP↔MSP requests); the paper
// measures an MSP↔MSP round trip of ≈3.6 ms, i.e. 1.8 ms one way. The
// timeScale parameter is retained for call-site compatibility; latency
// scaling is applied by the network.
func NewDomain(name string, oneWay time.Duration, timeScale float64) *Domain {
	_ = timeScale
	return &Domain{
		name:    name,
		oneWay:  oneWay,
		members: make(map[string]struct{}),
	}
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// OneWay returns the model one-way latency of intra-domain links.
func (d *Domain) OneWay() time.Duration { return d.oneWay }

// Contains reports whether the MSP with the given ID is a member.
func (d *Domain) Contains(id string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.members[id]
	return ok
}

// Members returns the IDs of all member MSPs.
func (d *Domain) Members() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.members))
	for id := range d.members {
		out = append(out, id)
	}
	return out
}

func (d *Domain) register(id string) {
	d.mu.Lock()
	d.members[id] = struct{}{}
	d.mu.Unlock()
}
