package wal

import (
	"strings"
	"sync"
	"testing"
	"time"

	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/simdisk"
)

// collectFlushErrs runs n concurrent Append+Flush pairs against l and
// returns their Flush results, failing the test if any of them hangs
// past the deadline.
func collectFlushErrs(t *testing.T, l *Log, n int, barrier *sync.WaitGroup) []error {
	t.Helper()
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			lsn, err := l.Append(1, []byte{byte(i)})
			if err != nil {
				errCh <- err
				return
			}
			if barrier != nil {
				barrier.Wait()
			}
			errCh <- l.Flush(lsn)
		}(i)
	}
	if barrier != nil {
		barrier.Done()
	}
	errs := make([]error, 0, n)
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errCh:
			errs = append(errs, err)
		case <-deadline:
			t.Fatalf("flush waiter hung: %d of %d never returned", n-i, n)
		}
	}
	return errs
}

// TestGroupCommitCloseDuringWait: closing the log while batched Flush
// calls are queued must wake every waiter. Each waiter either had its
// records made durable before the close (nil) or gets the closed error —
// never a hang. Regression: with the per-batch armed flusher goroutine,
// a waiter arriving after the batch timer was disarmed but before the
// flush completed could sleep an extra window behind flushMu; a close in
// that window raced with the error/closed delivery.
func TestGroupCommitCloseDuringWait(t *testing.T) {
	for round := 0; round < 20; round++ {
		l, _ := newTestLog(t, Config{BatchTimeout: 8 * time.Millisecond})
		var barrier sync.WaitGroup
		barrier.Add(1)
		done := make(chan []error, 1)
		go func() {
			done <- collectFlushErrs(t, l, 16, &barrier)
		}()
		// Close while the waiters race into the batched-flush path.
		l.Close()
		for _, err := range <-done {
			if err == nil {
				continue
			}
			if !strings.Contains(err.Error(), "closed") {
				t.Fatalf("waiter got %v, want nil or a closed error", err)
			}
		}
	}
}

// TestGroupCommitErrorReachesAllWaiters: when the physical flush dies,
// every queued waiter — including waiters that arrive after the error is
// already sticky — gets the error instead of waiting forever.
func TestGroupCommitErrorReachesAllWaiters(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	fp := failpoint.New(3)
	disk.SetFailpoints(fp)
	l, err := Open(disk, "log", Config{BatchTimeout: 8 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fp.Enable(FPFlushCrash, failpoint.Arg(0))
	var barrier sync.WaitGroup
	barrier.Add(1)
	for _, err := range collectFlushErrs(t, l, 16, &barrier) {
		if !failpoint.IsInjected(err) {
			t.Fatalf("waiter got %v, want the injected flush error", err)
		}
	}
	// A straggler arriving long after the error is sticky must see it
	// immediately, not re-arm a batch that never completes.
	lsn, err := l.Append(1, []byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(lsn); !failpoint.IsInjected(err) {
		t.Fatalf("late waiter got %v, want the sticky flush error", err)
	}
	l.Close()
}

// TestLoneFlushSkipsTheWindow: the batch window is adaptive (§5.5). On an
// idle log a lone Flush writes at once and never holds the window open:
// an idle system must not pay the window as latency.
func TestLoneFlushSkipsTheWindow(t *testing.T) {
	l, _ := newTestLog(t, Config{BatchTimeout: 8 * time.Millisecond})
	before := metrics.Wal.GroupCommitWindows.Load()
	lsn, err := l.Append(1, []byte("alone"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if d := metrics.Wal.GroupCommitWindows.Load() - before; d != 0 {
		t.Fatalf("a lone flush on an idle log held the batch window %d times, want 0", d)
	}
}
