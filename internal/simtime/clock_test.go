package simtime

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPendingWaitsShareOneGoroutine: a thousand pending After callbacks
// and a thousand unfired timers are entries in the driver's heap, not a
// goroutine each.
func TestPendingWaitsShareOneGoroutine(t *testing.T) {
	const n = 1000
	before := runtime.NumGoroutine()
	var fired sync.WaitGroup
	fired.Add(n)
	for i := 0; i < n; i++ {
		After(200*time.Millisecond, fired.Done)
	}
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = NewTimer(time.Hour)
	}
	if grew := runtime.NumGoroutine() - before; grew > 1 {
		t.Errorf("%d pending callbacks and %d pending timers added %d goroutines, want at most 1 (the driver)", n, n, grew)
	}
	for _, tm := range timers {
		tm.Stop()
	}
	fired.Wait()
}

// TestManySleepersNeverWakeEarly: five hundred concurrent sleeps of
// random length, each of which must last at least as long as asked.
func TestManySleepersNeverWakeEarly(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(1))
	var early atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		d := time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			Sleep(d)
			if time.Since(start) < d {
				early.Add(1)
			}
		}()
	}
	wg.Wait()
	if e := early.Load(); e > 0 {
		t.Fatalf("%d of %d sleeps returned before their deadline", e, n)
	}
}

// TestAfterRunsInDeadlineOrder: callbacks registered in shuffled order
// run in the order of their deadlines.
func TestAfterRunsInDeadlineOrder(t *testing.T) {
	const n = 200
	const gap = 20 * time.Microsecond
	base := time.Now().Add(20 * time.Millisecond)
	var (
		mu     sync.Mutex
		ran    []int
		wg     sync.WaitGroup
		lo, hi [n]time.Time // bounds on the deadline After computed
	)
	wg.Add(n)
	for _, i := range rand.New(rand.NewSource(2)).Perm(n) {
		// Each deadline is aimed at an absolute instant, so the time spent
		// registering the others cannot reorder them; a preemption between
		// the aim and the registration can, by at most the time measured
		// around the call.
		lo[i] = base.Add(time.Duration(i) * gap)
		before := time.Now()
		After(time.Until(lo[i]), func() {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
			wg.Done()
		})
		hi[i] = lo[i].Add(time.Since(before))
	}
	wg.Wait()
	pos := make([]int, n)
	for p, i := range ran {
		pos[i] = p
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if hi[i].Before(lo[j]) && pos[i] > pos[j] {
				t.Fatalf("callback %d ran after %d although its deadline was earlier: %v", i, j, ran)
			}
		}
	}
}

// TestStopRacingTheDeadline: a Stop that races the deadline leaves at
// most one value on C and never wedges the driver, and a timer stopped
// well before its deadline never fires.
func TestStopRacingTheDeadline(t *testing.T) {
	const n = 300
	var wg sync.WaitGroup
	raced := make([]*Timer, n)
	for i := range raced {
		d := time.Duration(i%50) * 10 * time.Microsecond
		raced[i] = NewTimer(d)
		wg.Add(1)
		go func(tm *Timer) {
			defer wg.Done()
			Sleep(d)
			tm.Stop()
			tm.Stop()
		}(raced[i])
	}
	// A timer counts as stopped well before its deadline only when Stop
	// returned before the deadline could have passed: on a loaded host
	// with the race detector, the gap between the two calls is not bounded.
	const d = 5 * time.Millisecond
	var early []*Timer
	for i := 0; i < n; i++ {
		created := time.Now()
		tm := NewTimer(d)
		tm.Stop()
		if time.Since(created) < d {
			early = append(early, tm)
		}
	}
	wg.Wait()
	Sleep(2 * d) // the driver is still alive past every deadline above
	for i, tm := range raced {
		if got := len(tm.C); got > 1 {
			t.Fatalf("raced timer %d holds %d values", i, got)
		}
	}
	for i, tm := range early {
		select {
		case <-tm.C:
			t.Fatalf("timer %d fired after it was stopped", i)
		default:
		}
	}
}
