package main

import (
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read: every latency, span and
// set-up time is the difference of two of its values.
func now() time.Time {
	return time.Now() //mspr:wallclock the benchmark measures real elapsed time and rescales it to model time
}

// modelMS converts a wall duration to model milliseconds: every modelled
// latency is slept for latency × paperTimeScale.
func modelMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond) / paperTimeScale
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pause sleeps on the operating system's timer, without spinning: the
// benchmark's own waiting must not take a CPU from the system it measures.
func pause(d time.Duration) {
	time.Sleep(d) //mspr:wallclock polling from outside the simulation, which runs on real time
}
