package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/metrics"
	"mspr/internal/oracle"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/workload"
)

// The -overload storm saturates one MSP on purpose. The closed-loop
// storms can never overload anything — each actor waits for its reply,
// so offered load tracks capacity — so this storm first MEASURES the
// closed-loop capacity, then floods the server open-loop at a multiple
// of it with bursty arrivals and Zipf-skewed keys, crash-restarting the
// server mid-saturation. Every flooded call carries a deadline, draws on
// a shared retry budget, and trips a per-server circuit breaker; the
// server sheds at the admission gate and at the pre-append check. The
// oracle records the whole history, and the storm asserts:
//
//   - zero correctness violations (exactly-once survives shedding:
//     a shed request never owns a logged execution),
//   - queue depth stayed bounded by the configured lane capacities,
//   - time-to-shed stayed bounded (sheds fail fast; they do not hang),
//   - the flood actually shed (otherwise the ≥4x claim tested nothing).
type overloadConfig struct {
	seed       int64
	scale      float64
	loss, dup  float64
	factor     float64       // offered load as a multiple of measured capacity
	duration   time.Duration // wall-clock flood window
	keys       int           // Zipf key-space size
	burst      int           // arrivals per open-loop burst
	crashes    int           // crash-restarts fired during the flood
	queueDepth int           // normal-lane admission queue capacity
}

// overloadOutcomes tallies the client-visible endings of flooded calls.
type overloadOutcomes struct {
	ok, appErr, overloaded, circuitOpen, deadline, other atomic.Int64
}

func (o *overloadOutcomes) record(err error) {
	switch {
	case err == nil:
		o.ok.Add(1)
	case err == rpc.ErrOverloaded:
		o.overloaded.Add(1)
	case err == rpc.ErrCircuitOpen:
		o.circuitOpen.Add(1)
	case err == rpc.ErrDeadlineExceeded:
		o.deadline.Add(1)
	default:
		if _, ok := err.(*rpc.AppError); ok {
			o.appErr.Add(1)
		} else {
			o.other.Add(1)
		}
	}
}

func keyName(k int) string { return fmt.Sprintf("key-%d", k) }

// runOverloadStorm builds the system, measures capacity, floods, audits,
// and returns the process exit code.
func runOverloadStorm(c overloadConfig) int {
	net := simnet.New(simnet.Config{
		OneWay: 1798 * time.Microsecond, TimeScale: c.scale,
		LossRate: c.loss, DupRate: c.dup, Seed: c.seed,
	})
	rec := oracle.NewRecorder()

	shared := make([]core.SharedDef, c.keys)
	for i := range shared {
		shared[i] = core.SharedDef{Name: keyName(i), Initial: u64(0)}
	}
	def := core.Definition{
		Methods: map[string]core.Handler{
			// mark(key): the contended write — Zipf skew concentrates
			// these on the hot keys.
			"mark": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				return ctx.UpdateShared(keyName(int(asU64(arg))), func(old []byte) []byte { return u64(asU64(old) + 1) })
			},
			"get": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				return ctx.ReadShared(keyName(int(asU64(arg))))
			},
		},
		Shared: shared,
	}
	dom := core.NewDomain("overload", 1798*time.Microsecond, c.scale)
	cfg := core.NewConfig("msp", dom, simdisk.NewDisk(simdisk.DefaultModel(c.scale)), net, def)
	cfg.TimeScale = c.scale
	cfg.Tap = rec
	// A deliberately shallow normal lane: at factor x capacity the
	// backlog must hit the wall and shed, not absorb the whole flood.
	cfg.RequestQueueDepth = c.queueDepth
	srv, err := core.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overload: start:", err)
		return 1
	}
	var procMu sync.Mutex

	overload0 := snapshotOverload()

	// Phase 1: measure closed-loop capacity — paper-style actors, no
	// deadlines, no budgets, each waiting for its reply.
	const measureActors = 4
	measureWindow := 600 * time.Millisecond
	capClient := core.NewClient("cap-client", net, rpc.DefaultCallOptions(c.scale))
	capClient.SetTap(rec)
	var measured atomic.Int64
	var wg sync.WaitGroup
	stopMeasure := make(chan struct{})
	for a := 0; a < measureActors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			zipf := workload.NewZipfKeys(workload.ZipfParams{Keys: c.keys, Skew: 1.2, Seed: c.seed + int64(a)})
			sess := capClient.Session("msp")
			for seq := uint64(1); ; seq++ {
				select {
				case <-stopMeasure:
					return
				default:
				}
				k := zipf.Next()
				rec.DeclareEffect(sess.ID(), seq, "msp/"+keyName(k), 1)
				if _, err := sess.Call("mark", u64(uint64(k))); err != nil {
					return
				}
				measured.Add(1)
			}
		}(a)
	}
	t0 := time.Now()
	time.Sleep(measureWindow)
	close(stopMeasure)
	wg.Wait()
	elapsed := time.Since(t0)
	capacity := float64(measured.Load()) / elapsed.Seconds()
	if capacity <= 0 {
		fmt.Fprintln(os.Stderr, "overload: measured zero closed-loop capacity")
		return 1
	}
	floodRate := capacity * c.factor
	fmt.Printf("overload: closed-loop capacity %.0f ops/s (%d actors, %v); flooding open-loop at %.0f ops/s (%.1fx) for %v\n",
		capacity, measureActors, elapsed.Round(time.Millisecond), floodRate, c.factor, c.duration)

	// Phase 2: the open-loop flood. One call per session, abandoned on
	// any non-terminal outcome — a shed request's sequence number is
	// never reused with different arguments. All sessions toward the
	// server share one retry budget and one circuit breaker.
	floodOpts := rpc.DefaultCallOptions(c.scale)
	floodOpts.TimeScale = c.scale
	// Model time; ~30 ms wall at the default scale — comparable to the
	// time a full normal lane takes to drain, so a slice of admitted
	// requests expires in the queue and exercises the pre-append shed.
	floodOpts.Timeout = 6 * time.Second
	floodOpts.Budget = rpc.NewRetryBudget(64, 0.5)
	floodOpts.Breaker = rpc.NewBreaker(32, 25*time.Millisecond)
	floodClient := core.NewClient("flood-client", net, floodOpts)
	floodClient.SetTap(rec)

	arrivals := workload.NewArrivals(workload.ArrivalParams{Rate: floodRate, Burst: c.burst, Seed: c.seed + 1000})
	zipf := workload.NewZipfKeys(workload.ZipfParams{Keys: c.keys, Skew: 1.2, Seed: c.seed + 2000})
	var outcomes overloadOutcomes
	shedLat := &chaos.DurationSeries{}
	var offered int64

	// Crash-restarts mid-saturation, spread across the flood window.
	restartErrs := make(chan error, c.crashes)
	var crashWg sync.WaitGroup
	if c.crashes > 0 {
		crashWg.Add(1)
		go func() {
			defer crashWg.Done()
			gap := c.duration / time.Duration(c.crashes+1)
			for i := 0; i < c.crashes; i++ {
				time.Sleep(gap)
				procMu.Lock()
				srv.Crash()
				s, err := core.Start(cfg)
				if err == nil {
					srv = s
				} else {
					restartErrs <- err
				}
				procMu.Unlock()
			}
		}()
	}

	// Absolute-time pacing: each arrival is scheduled at the previous
	// arrival time plus the generated gap, and the loop only sleeps when
	// ahead of schedule. Falling behind (goroutine spawn overhead, sleep
	// granularity) self-corrects by firing late arrivals back-to-back, so
	// the achieved rate tracks the target instead of silently sagging.
	floodStart := time.Now()
	floodEnd := floodStart.Add(c.duration)
	next := floodStart
	var callWg sync.WaitGroup
	for time.Now().Before(floodEnd) {
		next = next.Add(arrivals.Next())
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		k := zipf.Next()
		offered++
		callWg.Add(1)
		go func(k int) {
			defer callWg.Done()
			sess := floodClient.Session("msp")
			rec.DeclareEffect(sess.ID(), 1, "msp/"+keyName(k), 1)
			start := time.Now()
			_, err := sess.Call("mark", u64(uint64(k)))
			outcomes.record(err)
			if err == rpc.ErrOverloaded || err == rpc.ErrCircuitOpen || err == rpc.ErrDeadlineExceeded {
				shedLat.Observe(time.Since(start))
			}
		}(k)
	}
	floodElapsed := time.Since(floodStart)
	callWg.Wait()
	crashWg.Wait()
	close(restartErrs)
	achieved := float64(offered) / floodElapsed.Seconds()

	// Phase 3: drain and audit. A closed-loop client (no deadline) reads
	// every key once the backlog clears; the oracle balances declared
	// effects against these finals.
	auditClient := core.NewClient("audit-client", net, rpc.DefaultCallOptions(c.scale))
	auditClient.SetTap(rec)
	audit := auditClient.Session("msp")
	var failures []string
	for k := 0; k < c.keys; k++ {
		v, err := audit.Call("get", u64(uint64(k)))
		if err != nil {
			failures = append(failures, fmt.Sprintf("audit read %s: %v", keyName(k), err))
			break
		}
		rec.FinalState("msp/"+keyName(k), int64(asU64(v)))
	}

	procMu.Lock()
	srv.Crash()
	procMu.Unlock()
	capClient.Close()
	floodClient.Close()
	auditClient.Close()

	// The report.
	delta := snapshotOverload().sub(overload0)
	fmt.Printf("overload: offered=%d (%.0f ops/s achieved, %.1fx capacity) ok=%d overloaded=%d circuitOpen=%d deadline=%d appErr=%d other=%d\n",
		offered, achieved, achieved/capacity, outcomes.ok.Load(), outcomes.overloaded.Load(),
		outcomes.circuitOpen.Load(), outcomes.deadline.Load(), outcomes.appErr.Load(), outcomes.other.Load())
	printOverloadMetrics()
	if shedLat.Count() > 0 {
		fmt.Printf("overload: timeToShed p50=%v p95=%v max=%v (%d sheds client-side)\n",
			shedLat.Percentile(50).Round(time.Millisecond), shedLat.Percentile(95).Round(time.Millisecond),
			shedLat.Max().Round(time.Millisecond), shedLat.Count())
	}
	fmt.Printf("oracle: %d events recorded\n", rec.Len())

	// The assertions.
	for err := range restartErrs {
		failures = append(failures, fmt.Sprintf("crash-restart mid-saturation failed: %v", err))
	}
	if vs := rec.Check(); len(vs) != 0 {
		for _, v := range vs {
			fmt.Fprintln(os.Stderr, " oracle:", v)
		}
		failures = append(failures, fmt.Sprintf("oracle: %d violations under saturation", len(vs)))
	}
	bound := int64(c.queueDepth) + int64(core.DefaultPriorityQueueDepth)
	if peak := metrics.Overload.QueueDepthPeak.Load(); peak > bound {
		failures = append(failures, fmt.Sprintf("queue depth peaked at %d, above the %d lane capacity", peak, bound))
	}
	if serverSheds := delta.shedAtAdmission + delta.shedExpired; serverSheds == 0 {
		failures = append(failures, "the flood never shed: offered load did not exceed capacity, the storm proved nothing")
	}
	// A shed must fail fast: budget-bounded retries sleep at most a few
	// RetryAfter hints (capped at 2s each), never the whole storm.
	if maxShed := shedLat.Max(); maxShed > 10*time.Second {
		failures = append(failures, fmt.Sprintf("slowest shed took %v: sheds must fail fast", maxShed))
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, " -", f)
		}
		fmt.Println("OVERLOAD STORM FAILED")
		return 1
	}
	fmt.Println("OVERLOAD STORM PASSED")
	return 0
}

// overloadSnapshot captures the process-wide overload counters so the
// storm can report deltas (tests in the same process may have moved them).
type overloadSnapshot struct {
	admitted, admittedPriority, priorityOverflow, shedAtAdmission, shedExpired int64
	budgetExhausted, breakerOpens                                              int64
}

func snapshotOverload() overloadSnapshot {
	o := &metrics.Overload
	return overloadSnapshot{
		admitted:         o.Admitted.Load(),
		admittedPriority: o.AdmittedPriority.Load(),
		priorityOverflow: o.PriorityOverflow.Load(),
		shedAtAdmission:  o.ShedAtAdmission.Load(),
		shedExpired:      o.ShedExpired.Load(),
		budgetExhausted:  o.RetryBudgetExhausted.Load(),
		breakerOpens:     o.BreakerOpens.Load(),
	}
}

func (s overloadSnapshot) sub(t overloadSnapshot) overloadSnapshot {
	return overloadSnapshot{
		admitted:         s.admitted - t.admitted,
		admittedPriority: s.admittedPriority - t.admittedPriority,
		priorityOverflow: s.priorityOverflow - t.priorityOverflow,
		shedAtAdmission:  s.shedAtAdmission - t.shedAtAdmission,
		shedExpired:      s.shedExpired - t.shedExpired,
		budgetExhausted:  s.budgetExhausted - t.budgetExhausted,
		breakerOpens:     s.breakerOpens - t.breakerOpens,
	}
}

// printOverloadMetrics prints the overload-control counters; every storm
// summary includes it so admission behaviour is visible even in the
// closed-loop storms (where sheds should be rare to absent).
func printOverloadMetrics() {
	o := &metrics.Overload
	fmt.Printf("overload: admitted=%d admittedPriority=%d priorityOverflow=%d shedAtAdmission=%d shedExpired=%d retryBudgetExhausted=%d breakerOpens=%d\n",
		o.Admitted.Load(), o.AdmittedPriority.Load(), o.PriorityOverflow.Load(), o.ShedAtAdmission.Load(),
		o.ShedExpired.Load(), o.RetryBudgetExhausted.Load(), o.BreakerOpens.Load())
	fmt.Printf("overload: queueDepthPeak=%d priorityDepthPeak=%d\n",
		o.QueueDepthPeak.Load(), o.PriorityDepthPeak.Load())
}
