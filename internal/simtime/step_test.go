package simtime

import (
	"sync"
	"testing"
	"time"
)

// TestStepMovesOnlyByAdvance: a stepped clock starts at the wall time of
// the swap, stands still between advances, and restore hands reads back
// to the wall clock.
func TestStepMovesOnlyByAdvance(t *testing.T) {
	before := time.Now()
	advance, restore := Step()
	t.Cleanup(restore)
	t0 := Now()
	if t0.Before(before) || t0.After(time.Now()) {
		t.Fatalf("stepped clock starts at %v, want the wall time of the swap (after %v)", t0, before)
	}
	if got := Since(t0); got != 0 {
		t.Fatalf("Since = %v with no advance, want 0", got)
	}
	advance(20 * time.Millisecond)
	if got := Since(t0); got != 20*time.Millisecond {
		t.Fatalf("Since = %v after advancing 20ms, want exactly 20ms", got)
	}
	if got := Until(t0.Add(time.Second)); got != 980*time.Millisecond {
		t.Fatalf("Until = %v, want exactly 980ms", got)
	}
	restore()
	if got := Since(t0); got <= 0 || got >= 20*time.Millisecond {
		t.Fatalf("Since = %v after restore, want the wall time elapsed since the swap", got)
	}
}

// TestStepRacesReads: swapping the clock in and out while other goroutines
// read it is safe (run under -race).
func TestStepRacesReads(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				Since(Now())
			}
		}()
	}
	for range 200 {
		advance, restore := Step()
		advance(time.Microsecond)
		restore()
	}
	close(stop)
	wg.Wait()
}
