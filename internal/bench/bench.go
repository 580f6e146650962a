// Package bench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated testbed. Each experiment has a
// structured result type (asserted on by tests and printed by
// cmd/mspr-bench) and a runner that drives the paper's §5.1 system
// (system.go) in the relevant configurations.
//
// Absolute numbers are simulator-scaled; what must (and does) reproduce
// is the paper's shape: orderings, ratios and crossovers. Results are
// reported in model milliseconds (wall time divided by TimeScale).
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mspr/internal/core"
	"mspr/internal/metrics"
	"mspr/internal/simdisk"
	"mspr/internal/simtime"
)

// Options configures an experiment run.
type Options struct {
	// TimeScale is the model-to-wall-clock factor (default 0.02: the
	// paper's milliseconds become 20 µs ticks).
	TimeScale float64
	// Requests is the number of end-client requests per configuration.
	Requests int
	// Clients is the number of concurrent end-client sessions (most
	// experiments use 1, as the paper does before §5.5).
	Clients int
	// W, when non-nil, receives the paper-style table as text.
	W io.Writer
}

func (o Options) withDefaults() Options {
	if o.TimeScale <= 0 {
		o.TimeScale = 0.02
	}
	if o.Requests <= 0 {
		o.Requests = 1000
	}
	if o.Clients <= 0 {
		o.Clients = 1
	}
	return o
}

func (o Options) printf(format string, args ...any) {
	if o.W != nil {
		fmt.Fprintf(o.W, format, args...)
	}
}

// RunStats summarizes one configuration run.
type RunStats struct {
	MeanMS     float64 // mean response time, model ms
	MaxMS      float64 // maximum response time, model ms
	P95MS      float64
	Throughput float64 // requests per model second
	Crashes    int64
	// LogBytesPerOp is the two MSP log disks' written bytes per request.
	LogBytesPerOp float64
}

// runOne builds the system c describes and measures response time and
// throughput over o.Requests requests spread across o.Clients concurrent
// sessions.
func runOne(o Options, c config) (RunStats, error) {
	sys, err := newSystem(c, o.TimeScale)
	if err != nil {
		return RunStats{}, err
	}
	defer sys.close()

	var series metrics.Series
	var mu sync.Mutex
	var firstErr error
	perClient := o.Requests / o.Clients
	if perClient == 0 {
		perClient = 1
	}
	start := simtime.Now()
	var wg sync.WaitGroup
	for range o.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := sys.client.Session("msp1")
			for i := 0; i < perClient; i++ {
				_, lat, err := sys.do(cs, i+1)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				series.Record(lat)
			}
		}()
	}
	wg.Wait()
	elapsed := simtime.Since(start)
	if firstErr != nil {
		return RunStats{}, firstErr
	}
	return RunStats{
		MeanMS:     metrics.ModelMS(series.Mean(), o.TimeScale),
		MaxMS:      metrics.ModelMS(series.Max(), o.TimeScale),
		P95MS:      metrics.ModelMS(series.Percentile(95), o.TimeScale),
		Throughput: metrics.ThroughputPerModelSecond(series.Count(), elapsed, o.TimeScale),
		Crashes:    sys.crashes(), // after elapsed: the last request's restart may still be running
		LogBytesPerOp: float64((sys.disk1.Stats().SectorsOut+sys.disk2.Stats().SectorsOut)*simdisk.SectorSize) /
			float64(series.Count()),
	}, nil
}

// callBound is the wall-clock bound on one end-client call of a run. A
// healthy call returns within model milliseconds; one unanswered after
// 30 s is stuck — its client resending to a server that never answers —
// and fails the run, naming its session and sequence number, instead of
// hanging it.
const callBound = 30 * time.Second

// boundedCall is cs.Call(method, arg) for the call with sequence number
// seq, failed once callBound passes without a reply. The stuck call
// itself ends when the run closes its client, which every run defers.
func boundedCall(cs *core.ClientSession, seq int, method string, arg []byte) ([]byte, error) {
	type result struct {
		out []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := cs.Call(method, arg)
		done <- result{out, err}
	}()
	timer := simtime.NewTimer(callBound)
	defer timer.Stop()
	select {
	case r := <-done:
		if r.err != nil {
			return nil, fmt.Errorf("bench: session %s seq %d: %w", cs.ID(), seq, r.err)
		}
		return r.out, nil
	case <-timer.C:
		return nil, fmt.Errorf("bench: session %s seq %d: %s unanswered after %v", cs.ID(), seq, method, callBound)
	}
}

// AllModes lists the five configurations in the paper's Fig. 14 order.
var AllModes = []Mode{NoLog, LoOptimistic, Pessimistic, Psession, StateServer}

// E1Result is one row of the Fig. 14 table.
type E1Result struct {
	Mode  Mode
	Stats RunStats
}

// RunE1 reproduces the Fig. 14 table: average response time of an
// end-client request in each of the five configurations (m = 1).
func RunE1(o Options) ([]E1Result, error) {
	o = o.withDefaults()
	o.printf("E1 — Fig. 14 (table): average response time, m=1, %d requests (model ms)\n", o.Requests)
	o.printf("%-14s %10s %10s %10s\n", "config", "mean", "p95", "max")
	var out []E1Result
	for _, mode := range AllModes {
		st, err := runOne(o, paperConfig(mode))
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", mode, err)
		}
		out = append(out, E1Result{Mode: mode, Stats: st})
		o.printf("%-14s %10.3f %10.3f %10.3f\n", mode, st.MeanMS, st.P95MS, st.MaxMS)
	}
	return out, nil
}

// E2Result is one series of the Fig. 14 chart: response time versus the
// number of calls to ServiceMethod2 inside ServiceMethod1.
type E2Result struct {
	Mode   Mode
	Calls  []int
	MeanMS []float64
}

// RunE2 reproduces the Fig. 14 chart: response time versus number of
// intra-service-domain calls per request for all five configurations.
func RunE2(o Options, calls []int) ([]E2Result, error) {
	o = o.withDefaults()
	if len(calls) == 0 {
		calls = []int{1, 2, 3, 4}
	}
	o.printf("E2 — Fig. 14 (chart): mean response time (model ms) vs calls to ServiceMethod2\n")
	o.printf("%-14s", "config")
	for _, m := range calls {
		o.printf(" %9s", fmt.Sprintf("m=%d", m))
	}
	o.printf("\n")
	var out []E2Result
	for _, mode := range AllModes {
		res := E2Result{Mode: mode, Calls: calls}
		o.printf("%-14s", mode)
		for _, m := range calls {
			c := paperConfig(mode)
			c.calls = m
			st, err := runOne(o, c)
			if err != nil {
				return nil, fmt.Errorf("E2 %s m=%d: %w", mode, m, err)
			}
			res.MeanMS = append(res.MeanMS, st.MeanMS)
			o.printf(" %9.3f", st.MeanMS)
		}
		o.printf("\n")
		out = append(out, res)
	}
	return out, nil
}

// E3Result is one point of Fig. 15(a): throughput at a session-
// checkpointing threshold (0 = checkpointing disabled).
type E3Result struct {
	ThresholdBytes int64
	Throughput     float64
}

// RunE3 reproduces Fig. 15(a): throughput versus session checkpointing
// threshold for locally optimistic logging.
func RunE3(o Options, thresholds []int64) ([]E3Result, error) {
	o = o.withDefaults()
	if len(thresholds) == 0 {
		thresholds = []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 0}
	}
	o.printf("E3 — Fig. 15(a): throughput (req/model-s) vs checkpointing threshold, LoOptimistic\n")
	o.printf("%-12s %12s\n", "threshold", "throughput")
	var out []E3Result
	for _, th := range thresholds {
		c := paperConfig(LoOptimistic)
		c.threshold = th
		st, err := runOne(o, c)
		if err != nil {
			return nil, fmt.Errorf("E3 threshold=%d: %w", th, err)
		}
		out = append(out, E3Result{ThresholdBytes: th, Throughput: st.Throughput})
		o.printf("%-12s %12.1f\n", thresholdName(th), st.Throughput)
	}
	return out, nil
}

func thresholdName(th int64) string {
	switch {
	case th == 0:
		return "none"
	case th >= 1<<20:
		return fmt.Sprintf("%dMB", th>>20)
	default:
		return fmt.Sprintf("%dKB", th>>10)
	}
}

// E4Result is one point of Fig. 15(b): throughput at a crash rate.
type E4Result struct {
	Mode       Mode
	CrashEvery int // 0 = no crashes
	Throughput float64
	Crashes    int64
}

// RunE4 reproduces Fig. 15(b): throughput versus crash rate (one crash
// per crashEvery requests) for both logging methods, 1 MB threshold.
func RunE4(o Options, crashEvery []int) ([]E4Result, error) {
	o = o.withDefaults()
	if len(crashEvery) == 0 {
		crashEvery = []int{0, 2000, 1500, 1000}
	}
	o.printf("E4 — Fig. 15(b): throughput (req/model-s) vs crash rate, threshold 1MB\n")
	o.printf("%-14s %12s %12s %8s\n", "config", "crash rate", "throughput", "crashes")
	var out []E4Result
	for _, mode := range []Mode{LoOptimistic, Pessimistic} {
		for _, ce := range crashEvery {
			c := paperConfig(mode)
			c.crashEvery = ce
			st, err := runOne(o, c)
			if err != nil {
				return nil, fmt.Errorf("E4 %s crashEvery=%d: %w", mode, ce, err)
			}
			out = append(out, E4Result{Mode: mode, CrashEvery: ce, Throughput: st.Throughput, Crashes: st.Crashes})
			o.printf("%-14s %12s %12.1f %8d\n", mode, rateName(ce), st.Throughput, st.Crashes)
		}
	}
	return out, nil
}

func rateName(ce int) string {
	if ce == 0 {
		return "none"
	}
	return fmt.Sprintf("1/%d", ce)
}

// E5Result is the Fig. 16 table: maximum response times.
type E5Result struct {
	// Crash, NoCrash, NoCp for LoOptimistic and Pessimistic (model ms).
	LoCrash, LoNoCrash, LoNoCp float64
	PeCrash, PeNoCrash, PeNoCp float64
	// The three reference configurations without crashes.
	NoLogMax, StateServerMax, PsessionMax float64
}

// RunE5 reproduces the Fig. 16 table: maximum response time with crashes
// (rate as configured), without crashes (1 MB threshold), and without
// checkpointing, plus the three non-logging references.
func RunE5(o Options, crashEvery int) (E5Result, error) {
	o = o.withDefaults()
	if crashEvery <= 0 {
		crashEvery = 1000
	}
	var res E5Result
	type cell struct {
		out        *float64
		mode       Mode
		crashEvery int
		threshold  int64
	}
	cells := []cell{
		{&res.LoCrash, LoOptimistic, crashEvery, 1 << 20},
		{&res.LoNoCrash, LoOptimistic, 0, 1 << 20},
		{&res.LoNoCp, LoOptimistic, 0, 0},
		{&res.PeCrash, Pessimistic, crashEvery, 1 << 20},
		{&res.PeNoCrash, Pessimistic, 0, 1 << 20},
		{&res.PeNoCp, Pessimistic, 0, 0},
		{&res.NoLogMax, NoLog, 0, 0},
		{&res.StateServerMax, StateServer, 0, 0},
		{&res.PsessionMax, Psession, 0, 0},
	}
	for _, c := range cells {
		cfg := paperConfig(c.mode)
		cfg.crashEvery = c.crashEvery
		cfg.threshold = c.threshold
		st, err := runOne(o, cfg)
		if err != nil {
			return res, fmt.Errorf("E5 %s: %w", c.mode, err)
		}
		*c.out = st.MaxMS
	}
	o.printf("E5 — Fig. 16 (table): maximum response time (model ms)\n")
	o.printf("%-14s %10s %10s %10s\n", "config", "Crash", "NoCrash", "NoCp")
	o.printf("%-14s %10.1f %10.1f %10.1f\n", "LoOptimistic", res.LoCrash, res.LoNoCrash, res.LoNoCp)
	o.printf("%-14s %10.1f %10.1f %10.1f\n", "Pessimistic", res.PeCrash, res.PeNoCrash, res.PeNoCp)
	o.printf("NoLog: %.1f   StateServer: %.1f   Psession: %.1f\n",
		res.NoLogMax, res.StateServerMax, res.PsessionMax)
	return res, nil
}

// E6Result is one point of the Fig. 16 chart: throughput under a fixed
// crash rate at a checkpointing threshold.
type E6Result struct {
	ThresholdBytes int64
	Throughput     float64
}

// RunE6 reproduces the Fig. 16 chart: throughput for a fixed crash rate
// versus checkpointing threshold (LoOptimistic). The paper finds an
// interior optimum (≈512 KB at crash rate 1/1000): low thresholds pay
// checkpoint overhead, high thresholds pay long orphan-recovery replays.
func RunE6(o Options, crashEvery int, thresholds []int64) ([]E6Result, error) {
	o = o.withDefaults()
	if crashEvery <= 0 {
		crashEvery = 1000
	}
	if len(thresholds) == 0 {
		thresholds = []int64{64 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20}
	}
	o.printf("E6 — Fig. 16 (chart): throughput (req/model-s) at crash rate %s vs threshold, LoOptimistic\n",
		rateName(crashEvery))
	o.printf("%-12s %12s\n", "threshold", "throughput")
	var out []E6Result
	for _, th := range thresholds {
		c := paperConfig(LoOptimistic)
		c.crashEvery = crashEvery
		c.threshold = th
		st, err := runOne(o, c)
		if err != nil {
			return nil, fmt.Errorf("E6 threshold=%d: %w", th, err)
		}
		out = append(out, E6Result{ThresholdBytes: th, Throughput: st.Throughput})
		o.printf("%-12s %12.1f\n", thresholdName(th), st.Throughput)
	}
	return out, nil
}

// E7Result is one point of Fig. 17: performance versus number of
// concurrent end clients, with and without batch flushing.
type E7Result struct {
	Mode       Mode
	Batch      bool
	Clients    int
	Throughput float64
	MeanMS     float64
}

// RunE7 reproduces Fig. 17: throughput (left) and response time (right)
// versus the number of end clients for both logging methods, with and
// without batch flushing (timeout ≈ 8 ms, the paper's choice).
func RunE7(o Options, clients []int) ([]E7Result, error) {
	o = o.withDefaults()
	if len(clients) == 0 {
		clients = []int{1, 2, 3, 4, 6, 8}
	}
	o.printf("E7 — Fig. 17: throughput (req/model-s) and mean response time (model ms) vs clients\n")
	o.printf("%-26s", "config")
	for _, c := range clients {
		o.printf(" %15s", fmt.Sprintf("c=%d", c))
	}
	o.printf("\n")
	var out []E7Result
	for _, mode := range []Mode{Pessimistic, LoOptimistic} {
		for _, batch := range []bool{false, true} {
			name := mode.String()
			if batch {
				name += "+Batch"
			} else {
				name += "-NoBatch"
			}
			o.printf("%-26s", name)
			for _, c := range clients {
				cfg := paperConfig(mode)
				if batch {
					cfg.batch = 8 * time.Millisecond
				}
				ro := o
				ro.Clients = c
				st, err := runOne(ro, cfg)
				if err != nil {
					return nil, fmt.Errorf("E7 %s c=%d: %w", name, c, err)
				}
				out = append(out, E7Result{Mode: mode, Batch: batch, Clients: c,
					Throughput: st.Throughput, MeanMS: st.MeanMS})
				o.printf(" %7.1f/%-7.2f", st.Throughput, st.MeanMS)
			}
			o.printf("\n")
		}
	}
	return out, nil
}
