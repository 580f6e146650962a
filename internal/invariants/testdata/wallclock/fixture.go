// Package fixture exercises the wallclock analyzer: wall-clock reads
// are findings, simtime is the clean path, and //mspr:wallclock
// documents deliberate exceptions.
package fixture

import (
	"time"

	"mspr/internal/simtime"
)

// delays models a latency through the sim plane, then observes real
// time three forbidden ways.
func delays(d time.Duration) time.Duration {
	simtime.Sleep(d)
	start := time.Now()      // want "wall-clock time.Now"
	time.Sleep(d)            // want "wall-clock time.Sleep"
	return time.Since(start) // want "wall-clock time.Since"
}

// annotated is a deliberate, documented exception.
func annotated() time.Time {
	return time.Now() //mspr:wallclock fixture demonstrates a documented exemption
}

var _ = delays
var _ = annotated

// clock hands the wall clock out as a value: a reference, not a call.
// expired calls a method of time.Time, which reads no clock.
var clock = time.Now // want "wall-clock time.Now"

func expired(deadline time.Time) bool { return simtime.Now().After(deadline) }

var _ = clock
var _ = expired
