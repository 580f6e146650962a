// Package simtime is the simulation's one clock. Now, Since and Until
// read it: its only production source is the wall clock, and Step swaps
// in a stepped clock for tests. Sleep, After and Timer wait, always on the
// wall clock, and so does the driver that fires them: advancing a stepped
// clock wakes no one.
//
// The experiments scale the paper's millisecond-class latencies (disk
// flushes, message round trips) down by a TimeScale factor, which
// produces sleeps in the tens-to-hundreds of microseconds — far below the
// timer granularity of many kernels (observed ≈1.1 ms on the development
// host). A plain time.Sleep would round every modelled latency up to the
// granularity and destroy the ratios the experiments depend on.
//
// Every pending wait — a Sleep, a Timer, an After callback — is one entry
// in a process-wide heap ordered by deadline, then by registration
// order. One driver goroutine, started on first use, owns the heap: it
// waits on one reusable OS timer for all but the last coarse period
// before the earliest deadline, spin-yields only for that last stretch,
// and then wakes every entry that is due. A waiting goroutine is parked
// on a channel until its last 5 µs (lead): the driver wakes a sleeper
// that much early, so the hand-off never makes it late, and the sleeper
// spin-yields the rest itself. Spinning therefore costs the driver's
// last coarse stretch before each deadline plus 5 µs per Sleep, however
// many waits are pending — an acceptable CPU cost in a simulator whose
// "latencies" are the product being measured.
//
// Timers are timeouts — a resend, a watchdog tick — and need no such
// precision: they wait in a second heap that the same driver serves from
// the OS timer alone, so a Timer may fire up to that timer's granularity
// late, and a pending timeout never makes the driver spin.
package simtime

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// stepped is the stepped clock's reading in Unix nanoseconds while Step
// has it in; 0 is the wall clock.
var stepped atomic.Int64

// Now returns the current time.
func Now() time.Time {
	if ns := stepped.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return time.Now()
}

// Since returns the time elapsed since t.
func Since(t time.Time) time.Duration { return Now().Sub(t) }

// Until returns the duration until t.
func Until(t time.Time) time.Duration { return t.Sub(Now()) }

// Step swaps in a stepped clock that starts at the wall time of the call
// and moves only by advance, until restore puts the wall clock back. The
// clock is process-wide: a test that steps it restores it before the next
// test starts, with t.Cleanup(restore). Only reads step; waits do not.
func Step() (advance func(time.Duration), restore func()) {
	stepped.Store(time.Now().UnixNano())
	return func(d time.Duration) { stepped.Add(int64(d)) }, func() { stepped.Store(0) }
}

// coarse is the assumed worst-case OS timer granularity. The driver
// spin-waits for the last coarse period before a deadline and uses the
// OS timer for the rest.
const coarse = 2 * time.Millisecond

// lead is how long before its deadline the driver wakes a sleeper, which
// spin-yields the rest on its own goroutine, so that the hand-off to a
// parked goroutine does not make it late. The hand-off takes a couple of
// microseconds at the median: without any lead a 100 µs sleep is late by
// 1.7 µs at the median, with 5 µs by 0.3 µs, as with 25. Every
// microsecond of lead beyond the hand-off is spin-yield that each of many
// concurrent sleepers pays, on as few as two CPUs (EXPERIMENTS.md,
// "Recovery without spin or garbage").
const lead = 5 * time.Microsecond

// Sleep pauses the calling goroutine for d with microsecond-class
// precision: parked until lead before the deadline, spin-yielding for
// the rest. Non-positive durations return immediately.
//
//mspr:blocking pauses the caller for the full duration
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > lead {
		w := pool.Get().(*wait)
		clk.add(&clk.exact, w, deadline.Add(-lead))
		<-w.ch
		pool.Put(w)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// After runs f after d on the clock's driver goroutine, or inline when d
// is not positive. f must not block: every later deadline in the process
// waits until it returns.
func After(d time.Duration, f func()) {
	if d <= 0 {
		f()
		return
	}
	w := pool.Get().(*wait)
	w.f = f
	clk.add(&clk.exact, w, time.Now().Add(d))
}

// Timer is a cancellable one-shot timeout. C receives exactly one value
// when the timer fires, at or up to the OS timer's granularity after its
// deadline; a timer stopped before its deadline never fires.
type Timer struct {
	// C fires once at the deadline.
	C <-chan struct{}

	w wait
}

// NewTimer starts a timer that fires on C after d. Non-positive
// durations fire immediately.
func NewTimer(d time.Duration) *Timer {
	c := make(chan struct{}, 1)
	t := &Timer{C: c, w: wait{ch: c, index: -1}}
	if d <= 0 {
		c <- struct{}{}
		return t
	}
	clk.add(&clk.timers, &t.w, time.Now().Add(d))
	return t
}

// Stop cancels the timer. Safe to call more than once and after the
// timer fired; it does not drain C.
func (t *Timer) Stop() {
	clk.mu.Lock()
	head := t.w.index == 0
	if t.w.index >= 0 {
		heap.Remove(&clk.timers, t.w.index)
	}
	clk.mu.Unlock()
	if head {
		// The driver may be sleeping until this deadline: let it sleep
		// until the next one instead.
		clk.wake()
	}
}

// wait is one pending deadline: at it, the driver either sends one value
// on ch (Sleep, Timer) or runs f (After).
type wait struct {
	deadline time.Time
	seq      uint64 // registration order: breaks deadline ties
	index    int    // position in the heap; -1 once fired or stopped
	ch       chan struct{}
	f        func()
}

// pool recycles the waits of Sleep and After; a Timer's wait lives in
// the Timer, which Stop needs to find it.
var pool = sync.Pool{New: func() any { return &wait{ch: make(chan struct{}, 1)} }}

// never stands for no deadline at all: later than any real one.
var never = time.Unix(1<<40, 0)

// clock is the process's one driver and the heaps it owns: exact holds the
// Sleeps and After callbacks, timers the Timers.
type clock struct {
	mu            sync.Mutex
	exact, timers waitHeap
	seq           uint64
	started       bool
	// until and untilTimer are the earliest deadlines in exact and in
	// timers when the driver last looked, never for an empty heap. A wait
	// due before its heap's kicks the driver, which may be sleeping on the
	// OS timer or spinning towards a later deadline.
	until, untilTimer time.Time
	kick              chan struct{}
}

var clk = clock{until: never, untilTimer: never, kick: make(chan struct{}, 1)}

// add registers w in h to come due at deadline, starting the driver on
// first use.
func (c *clock) add(h *waitHeap, w *wait, deadline time.Time) {
	c.mu.Lock()
	w.deadline = deadline
	c.seq++
	w.seq = c.seq
	heap.Push(h, w)
	earliest := deadline.Before(c.until)
	if h == &c.timers {
		earliest = deadline.Before(c.untilTimer)
	}
	if !c.started {
		c.started = true
		go c.run()
	}
	c.mu.Unlock()
	if earliest {
		c.wake()
	}
}

// wake kicks the driver to look at the heap again.
func (c *clock) wake() {
	select {
	case c.kick <- struct{}{}:
	default: // a kick is already pending
	}
}

// run is the driver loop, for the life of the process: fire everything
// due, then wait — on the OS timer until coarse before the next exact
// deadline or until the next timer, whichever is first, and spin-yielding
// for the last coarse stretch before an exact deadline. A timer that
// comes due during that stretch fires at its end.
func (c *clock) run() {
	bulk := time.NewTimer(time.Hour)
	bulk.Stop()
	var due []*wait
	for {
		now := time.Now()
		c.mu.Lock()
		due = c.exact.popDue(due, now)
		due = c.timers.popDue(due, now)
		c.until, c.untilTimer = c.exact.first(), c.timers.first()
		next, timer := c.until, c.untilTimer
		c.mu.Unlock()

		if len(due) > 0 {
			for i, w := range due {
				due[i] = nil
				if f := w.f; f != nil {
					w.f = nil
					pool.Put(w)
					f()
				} else {
					w.ch <- struct{}{} // one send per registration: never blocks
				}
			}
			due = due[:0]
			continue // the wake-ups took time: look again
		}

		if left := next.Sub(now); left <= coarse {
			c.spin(next)
			continue
		}
		bulk.Reset(min(next.Sub(now)-coarse, timer.Sub(now)))
		select {
		case <-bulk.C:
		case <-c.kick:
			if !bulk.Stop() {
				select {
				case <-bulk.C:
				default:
				}
			}
		}
	}
}

// spin yields until next, or until a kick announces an earlier deadline.
func (c *clock) spin(next time.Time) {
	for time.Now().Before(next) {
		select {
		case <-c.kick:
			return
		default:
			runtime.Gosched()
		}
	}
}

// waitHeap is a min-heap of waits by (deadline, seq) that keeps each
// wait's index current, so Stop can remove it.
type waitHeap []*wait

func (h waitHeap) Len() int { return len(h) }

func (h waitHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}

func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *waitHeap) Push(x any) {
	w := x.(*wait)
	w.index = len(*h)
	*h = append(*h, w)
}

func (h *waitHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	w.index = -1
	*h = old[:len(old)-1]
	return w
}

// popDue moves the waits due at now from h to the end of due, in order.
func (h *waitHeap) popDue(due []*wait, now time.Time) []*wait {
	for len(*h) > 0 && !(*h)[0].deadline.After(now) {
		due = append(due, heap.Pop(h).(*wait))
	}
	return due
}

// first returns h's earliest deadline, never when h is empty.
func (h waitHeap) first() time.Time {
	if len(h) == 0 {
		return never
	}
	return h[0].deadline
}
