package main

import (
	"math/rand"
	"sort"
	"time"

	"mspr/internal/core"
)

// recoverCycles measures recover_4k on one instance: crash the idle
// MSP, restart it, make requests to seed-chosen sessions while the
// background sweep drains the rest, wait until every session is live,
// check more sessions, and go round again while time is left.
//
// Crash, not Shutdown: only flushed bytes survive, and every request
// acknowledged before the crash must still be there afterwards — each
// checked session must answer with exactly one more than it has logged.
//
// The requests made while the server recovers are the workload's
// latency sample: each finds its session not yet replayed and waits for
// that. The first one of a cycle also waits for the analysis pass, so it
// is left out of the sample and timed from the restart instead: it is
// the time to first reply, and the median over the cycles is the
// phase's tail latency.
func recoverCycles(s *sut, callers []*caller, seed int64, instance int, d time.Duration, tr *tracer, res *result) (phase, error) {
	rng := rand.New(rand.NewSource(seed*100 + int64(instance)))
	pay := newPayloads(seed, 0)
	check := func(c *caller) time.Duration {
		lat, err := c.call(s, pay, nil)
		res.attempted++
		if err != nil {
			res.fail("after restart: %v", err)
		}
		return lat
	}

	var ph phase
	start := now()
	for cycle := 0; cycle == 0 || now().Sub(start) < d; cycle++ {
		key := uint64(instance*1000 + cycle)
		lg := s.msps[0].Log()
		ph.liveLogBytes += float64(lg.Durable() - lg.Head())
		s.msps[0].Crash()
		before := s.snapshot()
		for c := cServed; c <= cOverloaded; c++ {
			before[c] = 0 // the new incarnation counts from 0
		}

		t0, c0 := now(), tr.at()
		srv, err := core.Start(s.cfgs[0])
		if err != nil {
			return ph, err
		}
		s.msps[0] = srv
		tr.add(key, spAnalysis, c0)
		tAnalysis, cAnalysis := now(), tr.at()

		sample := rng.Perm(len(callers))[:min(samplesPerCycle, len(callers))]
		during, after := sample[:len(sample)/2], sample[len(sample)/2:]
		var tFirst time.Time
		var cFirst int64
		for i, c := range during {
			lat := check(callers[c])
			if i == 0 {
				tr.add(key, spFirstRequest, cAnalysis)
				tFirst, cFirst = now(), tr.at()
				continue
			}
			ph.lat = append(ph.lat, lat)
		}
		for srv.RecoveringSessions() > 0 {
			pause(200 * time.Microsecond)
		}
		tDrained := now()
		tr.add(key, spSweep, cFirst)
		tr.add(key, spRecoverCycle, c0)

		// The sessions checked now were replayed by the sweep.
		for _, c := range after {
			check(callers[c])
		}
		delta := s.snapshot().sub(before)
		for i := range ph.delta {
			ph.delta[i] += delta[i]
		}
		ph.wall += tDrained.Sub(t0)
		ph.analysis = append(ph.analysis, modelMS(tAnalysis.Sub(t0)))
		ph.ttfr = append(ph.ttfr, modelMS(tFirst.Sub(t0)))
		ph.drain = append(ph.drain, modelMS(tDrained.Sub(t0)))
	}
	sort.Slice(ph.lat, func(i, j int) bool { return ph.lat[i] < ph.lat[j] })
	// A recovery's work is the logged requests it replays.
	ph.n = ph.delta.f(cReplayed)
	ph.tail = time.Duration(median(ph.ttfr) * paperTimeScale * float64(time.Millisecond))
	ph.segments = s.liveSegments()
	return ph, nil
}
