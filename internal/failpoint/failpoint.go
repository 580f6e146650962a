// Package failpoint is a deterministic fault-injection framework in the
// spirit of etcd's gofail, but pure Go and registry-scoped: no code
// generation, no global state. A Registry holds named failpoints; code
// under test evaluates a point by name at the places where a crash or
// I/O fault is most dangerous (mid-flush, mid-checkpoint, mid-recovery),
// and a test or chaos harness arms the points it wants to fire.
//
// Design rules:
//
//   - Disabled is free. Evaluating against a nil *Registry is a single
//     nil check, so production paths carry no cost and no behaviour
//     change when fault injection is off.
//   - Deterministic. The per-hit random arguments (torn-write lengths,
//     flipped bits) come from the registry's seeded generator, so a
//     storm with a given seed always injects the same faults at the
//     same evaluation points.
//   - Scoped. Each test builds its own Registry and attaches it to the
//     layers it exercises; parallel tests cannot interfere.
package failpoint

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrInjected is the sentinel returned (wrapped or bare) by operations
// killed by an injected crash. Harnesses use IsInjected to distinguish
// "the fault fired as scheduled" from a real failure.
var ErrInjected = errors.New("failpoint: injected crash")

// IsInjected reports whether err originates from an injected crash.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// Hit carries the activation context of a fired failpoint.
type Hit struct {
	// Arg is the value set with the Arg option (mode-specific: e.g. a
	// torn-write length hint). Zero when unset.
	Arg int64
	// R is a non-negative deterministic random value drawn from the
	// registry's seeded generator at fire time; injection sites use it
	// to pick torn lengths, flipped bits, etc.
	R int64
}

// point is one armed failpoint.
type point struct {
	remaining int // fires left; < 0 means unlimited
	skip      int // evaluations to ignore before the first fire
	arg       int64
}

// Registry is a set of named failpoints with a seeded random source.
// The zero value is not usable; use New. A nil *Registry is valid for
// evaluation and never fires.
type Registry struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
	hits   map[string]int64
}

// New creates an empty registry whose per-hit random values are driven
// by seed.
func New(seed int64) *Registry {
	return &Registry{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[string]*point),
		hits:   make(map[string]int64),
	}
}

// Option configures an armed failpoint.
type Option func(*point)

// Times limits the point to n fires, after which it disarms itself.
func Times(n int) Option { return func(p *point) { p.remaining = n } }

// SkipFirst ignores the first n evaluations before the point may fire.
func SkipFirst(n int) Option { return func(p *point) { p.skip = n } }

// Arg attaches a mode-specific argument delivered in the Hit.
func Arg(v int64) Option { return func(p *point) { p.arg = v } }

// Enable arms the named failpoint. Without options it fires exactly once
// (the common "crash here next time" case). Re-enabling replaces any
// previous arming of the same name.
func (r *Registry) Enable(name string, opts ...Option) {
	p := &point{remaining: 1}
	for _, o := range opts {
		o(p)
	}
	r.mu.Lock()
	r.points[name] = p
	r.mu.Unlock()
}

// Disable disarms the named failpoint. Its hit count is preserved.
func (r *Registry) Disable(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.points, name)
	r.mu.Unlock()
}

// DisableAll disarms every failpoint, preserving hit counts.
func (r *Registry) DisableAll() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.points = make(map[string]*point)
	r.mu.Unlock()
}

// Armed reports whether the named failpoint is currently armed.
func (r *Registry) Armed(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.points[name]
	return ok
}

// Hits returns how many times the named failpoint has fired.
func (r *Registry) Hits(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[name]
}

// Eval evaluates the named failpoint at an injection site. It reports
// whether the point fires now and, if so, its activation context. A nil
// registry never fires.
func (r *Registry) Eval(name string) (Hit, bool) {
	if r == nil {
		return Hit{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.points[name]
	if !ok {
		return Hit{}, false
	}
	if p.skip > 0 {
		p.skip--
		return Hit{}, false
	}
	if p.remaining == 0 {
		delete(r.points, name)
		return Hit{}, false
	}
	if p.remaining > 0 {
		p.remaining--
		if p.remaining == 0 {
			delete(r.points, name)
		}
	}
	r.hits[name]++
	return Hit{Arg: p.arg, R: r.rng.Int63()}, true
}
