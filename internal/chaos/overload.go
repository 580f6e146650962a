package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mspr/internal/core"
	"mspr/internal/metrics"
	"mspr/internal/oracle"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
)

// The overload storm saturates one MSP on purpose. The closed-loop
// storms can never overload anything — each actor waits for its reply,
// so offered load tracks capacity — so this storm first MEASURES the
// closed-loop capacity, then floods the server open-loop at a multiple
// of it with bursty arrivals and Zipf-skewed keys, crash-restarting the
// server mid-saturation. Every flooded call carries a deadline and trips
// a per-server circuit breaker; the server sheds at the admission gate
// (a full lane, or a deadline already passed on arrival), and the client
// resends a shed request after its own backoff until the breaker or the
// deadline ends the call. The oracle records the whole history, and the
// storm asserts:
//
//   - zero correctness violations (exactly-once survives shedding: a
//     shed request never owns a logged execution, and one that expired
//     in the queue executes once and its resend is deduplicated),
//   - queue depth stayed bounded by the configured lane capacities,
//   - time-to-shed stayed bounded (sheds fail fast; they do not hang),
//   - the flood actually shed (otherwise the ≥4x claim tested nothing).

// OverloadSpec sizes an overload storm.
type OverloadSpec struct {
	Seed       int64
	Scale      float64
	Loss, Dup  float64
	Factor     float64       // offered load as a multiple of measured capacity
	Duration   time.Duration // wall-clock flood window
	Keys       int           // Zipf key-space size
	Burst      int           // arrivals per open-loop burst
	Crashes    int           // crash-restarts fired during the flood
	QueueDepth int           // normal-lane admission queue capacity
}

// OverloadReport is a finished overload storm.
type OverloadReport struct {
	// Capacity is the measured closed-loop rate (ops/s) of MeasureActors
	// actors over MeasureFor; Achieved the open-loop rate the flood
	// reached over its Offered arrivals.
	Capacity, Achieved float64
	MeasureFor         time.Duration
	Offered            int64
	// The client-visible endings of the flooded calls.
	OK, AppErr, CircuitOpen, Deadline, Other int64
	// ShedLatency holds the time each client-side shed (circuit open,
	// deadline) took to come back.
	ShedLatency metrics.Series
	// ServerSheds counts requests the server shed at admission during the
	// storm, on a full lane or an expired deadline.
	ServerSheds  int64
	OracleEvents int
	// Failures lists every assertion the storm violated; empty = passed.
	Failures []string
}

// MeasureActors is the number of closed-loop actors of the capacity phase.
const MeasureActors = 4

// record tallies the client-visible ending of one flooded call.
func (r *OverloadReport) record(err error, took time.Duration) {
	shed := false
	switch err {
	case nil:
		r.OK++
	case rpc.ErrCircuitOpen:
		r.CircuitOpen++
		shed = true
	case rpc.ErrDeadlineExceeded:
		r.Deadline++
		shed = true
	default:
		if _, ok := err.(*rpc.AppError); ok {
			r.AppErr++
		} else {
			r.Other++
		}
	}
	if shed {
		r.ShedLatency.Record(took)
	}
}

func serverSheds() int64 {
	return metrics.Overload.ShedAtAdmission.Load() + metrics.Overload.ShedExpired.Load()
}

// RunOverload builds the system, measures capacity, floods, audits, and
// reports. The error is a system that could not be built or measured;
// violated assertions are in the report.
func RunOverload(c OverloadSpec) (*OverloadReport, error) {
	net := simnet.New(simnet.Config{OneWay: oneWay, TimeScale: c.Scale,
		LossRate: c.Loss, DupRate: c.Dup, Seed: c.Seed})
	rec := oracle.NewRecorder()
	dom := core.NewDomain("overload", oneWay, c.Scale)
	// mark(key) is the contended write — Zipf skew concentrates the
	// flood on the hot keys.
	cfg := core.NewConfig("msp", dom, simdisk.NewDisk(simdisk.DefaultModel(c.Scale)), net, CounterApp(c.Keys))
	cfg.Tap = rec
	// A deliberately shallow normal lane: at Factor × capacity the
	// backlog must hit the wall and shed, not absorb the whole flood.
	cfg.RequestQueueDepth = c.QueueDepth
	msp, err := StartMSP(cfg)
	if err != nil {
		return nil, fmt.Errorf("overload: start: %w", err)
	}
	defer msp.Crash()
	newClient := func(id string, opts rpc.CallOptions) *core.Client {
		cl := core.NewClient(id, net, opts)
		cl.SetTap(rec)
		return cl
	}
	mark := func(sess *core.ClientSession, seq uint64, k int) error {
		rec.DeclareEffect(sess.ID(), seq, "msp/"+KeyName(k), 1)
		_, err := sess.Call("mark", U64(uint64(k)))
		return err
	}
	rep := &OverloadReport{}
	sheds0, peak0 := serverSheds(), metrics.Overload.QueueDepthPeak.Load()

	// Phase 1: measure closed-loop capacity — paper-style actors, no
	// deadlines, no breaker, each waiting for its reply.
	capClient := newClient("cap-client", rpc.DefaultCallOptions(c.Scale))
	defer capClient.Close()
	var measured atomic.Int64
	var wg sync.WaitGroup
	stopMeasure := make(chan struct{})
	for a := 0; a < MeasureActors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			zipf := NewZipfKeys(ZipfParams{Keys: c.Keys, Skew: 1.2, Seed: c.Seed + int64(a)})
			sess := capClient.Session("msp")
			for seq := uint64(1); ; seq++ {
				select {
				case <-stopMeasure:
					return
				default:
				}
				if mark(sess, seq, zipf.Next()) != nil {
					return
				}
				measured.Add(1)
			}
		}(a)
	}
	t0 := simtime.Now()
	simtime.Sleep(600 * time.Millisecond)
	close(stopMeasure)
	wg.Wait()
	rep.MeasureFor = simtime.Since(t0)
	rep.Capacity = float64(measured.Load()) / rep.MeasureFor.Seconds()
	if rep.Capacity <= 0 {
		return nil, fmt.Errorf("overload: measured zero closed-loop capacity")
	}

	// Phase 2: the open-loop flood. One call per session, abandoned on
	// any non-terminal outcome — a shed request's sequence number is
	// never reused with different arguments. All sessions toward the
	// server share one circuit breaker.
	floodOpts := rpc.DefaultCallOptions(c.Scale)
	// Model time; ~30 ms wall at the default scale — comparable to the
	// time a full normal lane takes to drain, so a slice of admitted
	// requests expires in the queue and executes anyway.
	floodOpts.Timeout = 6 * time.Second
	floodOpts.Breaker = rpc.NewBreaker(32, 25*time.Millisecond)
	floodClient := newClient("flood-client", floodOpts)
	defer floodClient.Close()
	arrivals := NewArrivals(ArrivalParams{Rate: rep.Capacity * c.Factor, Burst: c.Burst, Seed: c.Seed + 1000})
	zipf := NewZipfKeys(ZipfParams{Keys: c.Keys, Skew: 1.2, Seed: c.Seed + 2000})

	// Crash-restarts mid-saturation, spread across the flood window.
	var crashWg sync.WaitGroup
	crashWg.Add(1)
	go func() {
		defer crashWg.Done()
		for i := 0; i < c.Crashes; i++ {
			simtime.Sleep(c.Duration / time.Duration(c.Crashes+1))
			if err := msp.Restart(); err != nil {
				rep.Failures = append(rep.Failures, fmt.Sprintf("crash-restart mid-saturation failed: %v", err))
			}
		}
	}()

	// Absolute-time pacing: each arrival is scheduled at the previous
	// arrival time plus the generated gap, and the loop only sleeps when
	// ahead of schedule. Falling behind (goroutine spawn overhead, sleep
	// granularity) self-corrects by firing late arrivals back-to-back, so
	// the achieved rate tracks the target instead of silently sagging.
	floodStart := simtime.Now()
	next := floodStart
	var callWg sync.WaitGroup
	var tally sync.Mutex // guards rep's outcome counts while calls are in flight
	for simtime.Since(floodStart) < c.Duration {
		next = next.Add(arrivals.Next())
		if d := simtime.Until(next); d > 0 {
			time.Sleep(d) //mspr:wallclock the pacing catches up on its own when late; sub-2 ms gaps on simtime.Sleep would keep the driver spinning through the flood
		}
		k := zipf.Next()
		rep.Offered++
		callWg.Add(1)
		go func() {
			defer callWg.Done()
			start := simtime.Now()
			err := mark(floodClient.Session("msp"), 1, k)
			took := simtime.Since(start)
			tally.Lock()
			rep.record(err, took)
			tally.Unlock()
		}()
	}
	rep.Achieved = float64(rep.Offered) / simtime.Since(floodStart).Seconds()
	callWg.Wait()
	crashWg.Wait()

	// Phase 3: drain and audit. A closed-loop client (no deadline) reads
	// every key once the backlog clears; the oracle balances declared
	// effects against these finals.
	auditClient := newClient("audit-client", rpc.DefaultCallOptions(c.Scale))
	defer auditClient.Close()
	audit := auditClient.Session("msp")
	for k := 0; k < c.Keys; k++ {
		v, err := audit.Call("get", U64(uint64(k)))
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("audit read %s: %v", KeyName(k), err))
			break
		}
		rec.FinalState("msp/"+KeyName(k), int64(AsU64(v)))
	}
	rep.ServerSheds = serverSheds() - sheds0
	rep.OracleEvents = rec.Len()

	if err := oracleVerdict(rec); err != nil {
		rep.Failures = append(rep.Failures, fmt.Sprintf("under saturation: %v", err))
	}
	// The peak gauge is process-wide and monotonic: only a storm that
	// started under its bound can be held to it.
	bound := int64(c.QueueDepth) + int64(core.DefaultPriorityQueueDepth)
	if peak := metrics.Overload.QueueDepthPeak.Load(); peak0 <= bound && peak > bound {
		rep.Failures = append(rep.Failures, fmt.Sprintf("queue depth peaked at %d, above the %d lane capacity", peak, bound))
	}
	if rep.ServerSheds == 0 {
		rep.Failures = append(rep.Failures, "the flood never shed: offered load did not exceed capacity, the storm proved nothing")
	}
	// A shed must fail fast: the deadline bounds a shed call's backoffs
	// and the breaker cuts them short, never the whole storm.
	if maxShed := rep.ShedLatency.Max(); maxShed > 10*time.Second {
		rep.Failures = append(rep.Failures, fmt.Sprintf("slowest shed took %v: sheds must fail fast", maxShed))
	}
	return rep, nil
}
