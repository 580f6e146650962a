package rpc

import (
	"sync"

	"mspr/internal/simnet"
)

// routerBuf is the capacity of every channel a Router hands out. A waiter
// is owed one answer, but the network duplicates messages and a slow
// waiter can still have the previous exchange's late copies addressed to
// it; a few slots let Resolve stay non-blocking without dropping the one
// answer that matters behind them. Anything past the buffer is dropped —
// every waiter retransmits, so a dropped copy costs one resend.
const routerBuf = 16

// Router hands each answer arriving at an endpoint to the one goroutine
// waiting for it. The waiter registers the key its answer will carry (a
// session ID, a control-message ID), the endpoint's receive loop resolves
// arrivals by key, and an answer nobody waits for is dropped. The zero
// value is ready to use.
type Router[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]chan V
}

// Register starts routing answers keyed k to the returned channel, until
// Deregister(k). Registering a key again replaces its channel.
func (r *Router[K, V]) Register(k K) <-chan V {
	ch := make(chan V, routerBuf)
	r.mu.Lock()
	if r.m == nil {
		r.m = make(map[K]chan V)
	}
	r.m[k] = ch
	r.mu.Unlock()
	return ch
}

// Deregister stops routing answers keyed k.
func (r *Router[K, V]) Deregister(k K) {
	r.mu.Lock()
	delete(r.m, k)
	r.mu.Unlock()
}

// Resolve delivers v to the waiter registered under k, if there is one and
// its channel has room. It never blocks: it runs on the receive loop.
func (r *Router[K, V]) Resolve(k K, v V) {
	r.mu.Lock()
	ch := r.m[k]
	r.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- v:
	default:
	}
}

// Serve is an endpoint's receive loop: it passes every arriving message to
// handle, on the calling goroutine, until stop is closed.
func Serve(ep *simnet.Endpoint, stop <-chan struct{}, handle func(simnet.Message)) {
	for {
		select {
		case <-stop:
			return
		case m := <-ep.Recv():
			handle(m)
		}
	}
}
