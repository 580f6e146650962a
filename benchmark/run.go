package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"mspr/internal/core"
	"mspr/internal/metrics"
	"mspr/internal/oracle"
	"mspr/internal/simdisk"
)

// workload is one named set of inputs. Every workload is a closed loop:
// a client sends its next request only when the last one has been
// answered. At most 2 clients run, because the host has 2 CPUs and every
// modelled sleep in flight is a goroutine that spins.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	kind      sutKind
	clients   int // goroutines making requests; each goes round its share of the sessions
	sessions  int // end-client sessions
	rounds    int // requests made on each session in set-up
	instances int // fresh systems one run sets up and measures on, one after the other
}

const (
	requestsPerSession = 2  // recover_4k: logged requests per session at the first crash
	samplesPerCycle    = 64 // recover_4k: sessions checked after each restart
	oracleRequests     = 500
	tailPercentile     = 95 // of a serve workload's latencies: latency_tail_ms
)

var workloads = []workload{
	{Name: "paper_lo", kind: sutPaperLo, clients: 2, sessions: 2, rounds: 100, instances: 5,
		Why: "Fig. 13 request through two MSPs in one domain (locally optimistic): dv, distributed flush, logrec, wal and simdisk are all on the path"},
	{Name: "paper_pess", kind: sutPaperPess, clients: 2, sessions: 2, rounds: 100, instances: 5,
		Why: "same request, a domain per MSP (pessimistic): a flush per message instead of one distributed flush per reply, dv nearly idle"},
	{Name: "paper_nolog", kind: sutPaperNoLog, clients: 2, sessions: 2, rounds: 100, instances: 5,
		Why: "same request with logging off: bypasses wal, logrec, dv and simdisk, so a logging change must not move it; the simulator's ceiling"},
	{Name: "recover_4k", kind: sutRecover, clients: 2, sessions: 4000, rounds: requestsPerSession, instances: 3,
		Why: "crash and restart one MSP holding 4000 interleaved unreplayed sessions: wal read side, read cache and core replay while the write path idles"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOpts are the arguments of one run.
type runOpts struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // where a traced run writes its spans; "" writes none
	// shrink divides the workload's set-up sizes and the probes' loop
	// counts. It is 1 except in the package test.
	shrink int
}

// result is what one run of one workload reports.
type result struct {
	attempted, failed int
	problems          []string // failed checks, for the log
	e2e, layer        *metricSet
}

func (r *result) fail(format string, a ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

// payloads is the seeded source of request payload bytes.
type payloads struct {
	pool []byte
	off  int
}

func newPayloads(seed int64, stream int) *payloads {
	p := &payloads{pool: make([]byte, 1<<16)}
	rand.New(rand.NewSource(seed*1000 + int64(stream))).Read(p.pool)
	return p
}

// arg builds a request argument: the trace key, then payload bytes.
func (p *payloads) arg(key uint64) []byte {
	b := pad(key, requestSize)
	if p.off+requestSize > len(p.pool) {
		p.off = 0
	}
	copy(b[8:], p.pool[p.off:p.off+requestSize-8])
	p.off += 7 // not a divisor of the pool size: successive arguments differ
	return b
}

// caller is one end-client session and what its next reply must be.
type caller struct {
	idx    int
	cs     *core.ClientSession
	seq    uint64 // requests made
	expect uint64 // the per-session counter the next reply must carry
}

// call makes one request and checks the reply's per-session counter.
func (c *caller) call(s *sut, p *payloads, tr *tracer) (time.Duration, error) {
	c.seq++
	arg := p.arg(reqKey(c.idx, c.seq))
	t0 := tr.at()
	start := now()
	reply, err := c.cs.Call(s.method, arg)
	lat := now().Sub(start)
	tr.add(reqKey(c.idx, c.seq), spClientCall, t0)
	if err != nil {
		return lat, err
	}
	c.expect++
	if got := val(reply); got != c.expect {
		err = fmt.Errorf("session %s request %d: reply counter %d, want %d", c.cs.ID(), c.seq, got, c.expect)
		c.expect = got
	}
	return lat, err
}

func (s *sut) newCaller(tr *tracer) *caller {
	c := &caller{cs: s.client.Session("msp1")}
	if tr != nil {
		c.idx = tr.session(c.cs.ID())
	}
	return c
}

// counter names one of the counts the layers keep; counters is a
// snapshot of all of them, read through the layers' public accessors.
type counter int

const (
	cMallocs counter = iota
	cAllocBytes
	cGCCycles
	cGCPauseNS
	cCPUNS

	// Kept by a core.Server, so they start at 0 with each incarnation;
	// summed over the MSPs.
	cServed
	cReplayed
	cSessionCkpts
	cSVCkpts
	cMSPCkpts
	cOrphans
	cDistFlushes
	cBusy
	cOverloaded

	cShed
	cSessionsReplayed
	cLazyReplays
	cSweepReplays
	cLogNext
	cRotations
	cReclaimed
	cGroupBatches
	cGroupWaiters
	cDiskWrites
	cSectorsOut
	cWastedBytes
	cDiskReads
	cSectorsIn
	cWriteNS
	cReadNS

	nCounters
)

type counters [nCounters]int64

func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// f is a counter as a float, for the arithmetic of the reports.
func (a counters) f(c counter) float64 { return float64(a[c]) }

func (s *sut) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		cMallocs: int64(ms.Mallocs), cAllocBytes: int64(ms.TotalAlloc),
		cGCCycles: int64(ms.NumGC), cGCPauseNS: int64(ms.PauseTotalNs),
		cCPUNS:            int64(cpuTime()),
		cShed:             metrics.Overload.ShedAtAdmission.Load(),
		cSessionsReplayed: metrics.Recovery.SessionsReplayed.Load(),
		cLazyReplays:      metrics.Recovery.LazyReplays.Load(),
		cSweepReplays:     metrics.Recovery.SweepReplays.Load(),
		cRotations:        metrics.Wal.Rotations.Load(),
		cReclaimed:        metrics.Wal.SegmentsReclaimed.Load(),
		cGroupBatches:     metrics.Wal.GroupCommitBatches.Load(),
		cGroupWaiters:     metrics.Wal.GroupCommitBatchWaiters.Load(),
	}
	for _, m := range s.msps {
		st := m.Stats()
		c[cServed] += st.RequestsServed.Load()
		c[cReplayed] += st.RequestsReplayed.Load()
		c[cSessionCkpts] += st.SessionCkpts.Load()
		c[cSVCkpts] += st.SVCkpts.Load()
		c[cMSPCkpts] += st.MSPCkpts.Load()
		c[cOrphans] += st.OrphanRecoveries.Load()
		c[cDistFlushes] += st.DistFlushes.Load()
		c[cBusy] += st.BusyReplies.Load()
		c[cOverloaded] += st.OverloadedReplies.Load()
		if l := m.Log(); l != nil {
			c[cLogNext] += int64(l.Next())
		}
	}
	for _, d := range s.disks {
		st := d.Stats()
		c[cDiskWrites] += st.Writes
		c[cSectorsOut] += st.SectorsOut
		c[cWastedBytes] += st.WastedBytes
		c[cDiskReads] += st.Reads
		c[cSectorsIn] += st.SectorsIn
		c[cWriteNS] += int64(st.WriteTime)
		c[cReadNS] += int64(st.ReadTime)
	}
	return c
}

// phase is one measured stretch on one instance of the system.
type phase struct {
	lat   []time.Duration // sorted latencies of the requests in the latency sample
	tail  time.Duration   // tail latency: a high percentile of lat, or on recover_4k the time to first reply
	n     float64         // requests done: served, or on recover_4k replayed
	wall  time.Duration
	delta counters
	// segments is the number of live log segments when the phase ended.
	segments int
	// Of recover_4k's cycles: model ms from the restart until core.Start
	// returned, until the first reply and until every session was live,
	// and the log bytes the restarts had to recover from.
	analysis, ttfr, drain []float64
	liveLogBytes          float64
}

// modelSeconds is the phase's length in model time.
func (p phase) modelSeconds() float64 { return modelMS(p.wall) / 1000 }

// phaseMetrics are the end-to-end metrics a single phase yields; a run
// reports each one's median over its phases.
var phaseMetrics = []struct {
	name string
	of   func(phase) float64
}{
	{"throughput_rps", func(p phase) float64 { return ratio(p.n, p.modelSeconds()) }},
	{"latency_p50_ms", func(p phase) float64 { return modelMS(percentile(p.lat, 50)) }},
	{"latency_tail_ms", func(p phase) float64 { return modelMS(p.tail) }},
	{"cpu_us_per_req", func(p phase) float64 { return ratio(p.delta.f(cCPUNS)/1e3, p.n) }},
}

// pool joins the phases of a run's instances into one, for the layer
// metrics: counts add up, latencies form one sample.
func pool(phases []phase) phase {
	var all phase
	for _, p := range phases {
		all.lat = append(all.lat, p.lat...)
		all.n += p.n
		all.wall += p.wall
		for i := range all.delta {
			all.delta[i] += p.delta[i]
		}
		all.segments = p.segments
		all.analysis = append(all.analysis, p.analysis...)
		all.ttfr = append(all.ttfr, p.ttfr...)
		all.drain = append(all.drain, p.drain...)
		all.liveLogBytes += p.liveLogBytes
	}
	sort.Slice(all.lat, func(i, j int) bool { return all.lat[i] < all.lat[j] })
	return all
}

// liveSegments counts the MSPs' live log segments.
func (s *sut) liveSegments() int {
	n := 0
	for _, m := range s.msps {
		if lg := m.Log(); lg != nil {
			n += len(lg.Segments())
		}
	}
	return n
}

// serve runs the closed loop for the given time and returns the phase.
// Errors and wrong counters are counted into res and the loop goes on.
func (w workload) serve(s *sut, callers []*caller, seed int64, d time.Duration, tr *tracer, res *result) phase {
	var mu sync.Mutex
	var ph phase
	before := s.snapshot()
	start := now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPayloads(seed, c)
			mine := share(callers, c, w.clients)
			lat := make([]time.Duration, 0, 1<<16)
			var errs []error
			for i := 0; now().Before(deadline); i++ {
				l, err := mine[i%len(mine)].call(s, p, tr)
				if err != nil {
					errs = append(errs, err)
					continue
				}
				lat = append(lat, l)
			}
			mu.Lock()
			defer mu.Unlock()
			ph.lat = append(ph.lat, lat...)
			res.attempted += len(lat) + len(errs)
			for _, err := range errs {
				res.fail("%v", err)
			}
		}()
	}
	wg.Wait()
	ph.wall = now().Sub(start)
	ph.delta = s.snapshot().sub(before)
	ph.segments = s.liveSegments()
	sort.Slice(ph.lat, func(i, j int) bool { return ph.lat[i] < ph.lat[j] })
	ph.n = float64(len(ph.lat))
	ph.tail = percentile(ph.lat, tailPercentile)
	return ph
}

// share returns every n-th caller, starting with the c-th: the sessions
// client c of n goes round. On recover_4k going round them interleaves
// every session's log records with every other session's.
func share(callers []*caller, c, n int) []*caller {
	var mine []*caller
	for i := c; i < len(callers); i += n {
		mine = append(mine, callers[i])
	}
	return mine
}

// setUp builds the workload's system and brings it to the state the
// measurement starts from: w.rounds requests made on every session. The
// returned duration is one setup_s sample.
func (w workload) setUp(seed int64, tap core.Tap, ctap core.ClientTap, tr *tracer) (*sut, []*caller, time.Duration, error) {
	start := now()
	s, err := buildSUT(w.kind, tap, ctap, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	callers := make([]*caller, w.sessions)
	for i := range callers {
		callers[i] = s.newCaller(tr)
	}
	errc := make(chan error, w.clients)
	for c := 0; c < w.clients; c++ {
		go func() {
			p := newPayloads(seed, 100+c)
			for r := 0; r < w.rounds; r++ {
				for _, cl := range share(callers, c, w.clients) {
					if _, err := cl.call(s, p, nil); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- nil
		}()
	}
	for c := 0; c < w.clients; c++ {
		if e := <-errc; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		s.close()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, callers, now().Sub(start), nil
}

// oraclePass runs a short pass with the exactly-once oracle attached to
// both taps and counts each violation as a failed check.
func (w workload) oraclePass(seed int64, requests int, res *result) error {
	rec := oracle.NewRecorder()
	w.rounds = 1
	s, callers, _, err := w.setUp(seed, rec, rec, nil)
	if err != nil {
		return err
	}
	defer s.close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPayloads(seed, 200+c)
			mine := share(callers, c, w.clients)
			for r := 0; r < requests/w.clients; r++ {
				_, err := mine[r%len(mine)].call(s, p, nil)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.fail("oracle pass: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, v := range rec.Check() {
		res.fail("oracle: %v", v)
	}
	return nil
}

// run measures one workload once: on each of w.instances instances in
// turn it sets the system up and measures for an equal share of the
// time. An end-to-end metric is the median over the instances, so one
// disturbed instance does not move it; the layer metrics are taken over
// all of them together.
func (w workload) run(o runOpts) (*result, error) {
	if w.kind == sutRecover {
		w.sessions /= o.shrink
	} else {
		w.rounds = max(w.rounds/o.shrink, 1)
	}
	res := &result{e2e: newMetricSet(endToEnd), layer: newMetricSet(perLayer)}
	if w.kind != sutRecover {
		if err := w.oraclePass(o.seed, max(oracleRequests/o.shrink, w.clients), res); err != nil {
			return nil, err
		}
	}

	// A traced serve run spends half its time untraced, for the counters
	// and the throughput to compare with, and half on one more instance
	// that has the spans on. recover_4k's few spans are on in every
	// instance of a traced run.
	d := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.trace {
		tr = newTracer("msp1")
		if w.kind != sutRecover {
			d /= 2
		}
	}
	var disks int
	var phases []phase
	var setups []float64
	for i := 0; i < w.instances; i++ {
		s, callers, took, err := w.setUp(o.seed, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		disks = len(s.disks)
		var ph phase
		if w.kind == sutRecover {
			ph, err = recoverCycles(s, callers, o.seed, i, d/time.Duration(w.instances), tr, res)
		} else {
			ph = w.serve(s, callers, o.seed, d/time.Duration(w.instances), nil, res)
		}
		s.close()
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	}

	res.e2e.set("setup_s", median(setups))
	for _, m := range phaseMetrics {
		var v []float64
		for _, ph := range phases {
			v = append(v, m.of(ph))
		}
		res.e2e.set(m.name, median(v))
	}
	all := pool(phases)
	reportCounters(all, disks, res.layer)
	if !o.trace {
		return res, nil
	}

	if w.kind != sutRecover {
		s, callers, _, err := w.setUp(o.seed, tr, tr, tr)
		if err != nil {
			return nil, err
		}
		retries := tr.retries.Load()
		traced := w.serve(s, callers, o.seed, d, tr, res)
		s.close()
		res.layer.set("workload.client_retries_per_req", ratio(float64(tr.retries.Load()-retries), traced.n))
		res.layer.set("workload.trace_overhead_frac", 1-ratio(traced.n/traced.wall.Seconds(), all.n/all.wall.Seconds()))
	}
	sum := tr.finish()
	for _, p := range sum.problems {
		res.fail("trace: %s", p)
	}
	hopMS, err := runProbes(res.layer, o.shrink)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	reportSpans(sum, hopMS, res.layer)
	if o.traceOut != "" {
		if err := tr.writeSpans(o.traceOut, sum); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// reportCounters reports the layer metrics that every run knows: the
// latency sample's other statistics and what the layers counted. all is
// the run's pooled phase; per-request figures are divided by all.n.
func reportCounters(all phase, disks int, l *metricSet) {
	var sum time.Duration
	for _, d := range all.lat {
		sum += d
	}
	l.set("workload.latency_mean_ms", ratio(modelMS(sum), float64(len(all.lat))))
	l.set("workload.latency_p95_ms", modelMS(percentile(all.lat, 95)))
	l.set("workload.latency_p99_ms", modelMS(percentile(all.lat, 99)))
	l.set("workload.latency_p995_ms", modelMS(percentile(all.lat, 99.5)))
	l.set("workload.latency_p999_ms", modelMS(percentile(all.lat, 99.9)))
	l.set("workload.latency_max_ms", modelMS(percentile(all.lat, 100)))

	d, n := all.delta, all.n
	l.set("workload.requests", n)
	l.set("workload.run_wall_s", all.wall.Seconds())
	l.set("workload.allocs_per_req", ratio(d.f(cMallocs), n))
	l.set("workload.alloc_bytes_per_req", ratio(d.f(cAllocBytes), n))
	l.set("workload.gc_cycles", d.f(cGCCycles))
	l.set("workload.gc_pause_ms", d.f(cGCPauseNS)/1e6)

	l.set("core.requests_served", d.f(cServed))
	l.set("core.dist_flushes_per_req", ratio(d.f(cDistFlushes), n))
	l.set("core.session_ckpts", d.f(cSessionCkpts))
	l.set("core.sv_ckpts", d.f(cSVCkpts))
	l.set("core.msp_ckpts", d.f(cMSPCkpts))
	l.set("core.busy_replies", d.f(cBusy))
	l.set("core.overloaded_replies", d.f(cOverloaded))
	l.set("core.shed_at_admission", d.f(cShed))
	l.set("core.orphan_recoveries", d.f(cOrphans))
	// The engine keeps these two as maxima since the process started,
	// set-up included; they cannot be read as a difference.
	l.set("core.queue_depth_peak", float64(metrics.Overload.QueueDepthPeak.Load()))
	l.set("wal.peak_live_bytes", float64(metrics.Wal.PeakLiveBytes.Load()))

	l.set("wal.appended_bytes_per_req", ratio(d.f(cLogNext), n))
	l.set("wal.rotations", d.f(cRotations))
	l.set("wal.segments_reclaimed", d.f(cReclaimed))
	l.set("wal.segments_live_end", float64(all.segments))
	l.set("wal.group_commit_batches", d.f(cGroupBatches))
	l.set("wal.group_commit_factor", ratio(d.f(cGroupWaiters), d.f(cGroupBatches)))

	writeMS, modelMSTotal := d.f(cWriteNS)/1e6, 1000*all.modelSeconds()
	l.set("simdisk.writes_per_req", ratio(d.f(cDiskWrites), n))
	l.set("simdisk.sectors_out_per_req", ratio(d.f(cSectorsOut), n))
	l.set("simdisk.log_bytes_per_req", ratio(d.f(cSectorsOut)*simdisk.SectorSize, n))
	l.set("simdisk.wasted_bytes_per_req", ratio(d.f(cWastedBytes), n))
	l.set("simdisk.write_model_ms_per_req", ratio(writeMS, n))
	l.set("simdisk.write_busy_frac", ratio(writeMS, modelMSTotal*float64(disks)))

	// recover_4k only. Counts are means per cycle, times medians over
	// the cycles.
	cycles := float64(len(all.drain))
	if cycles == 0 {
		return
	}
	l.set("core.requests_replayed", d.f(cReplayed)/cycles)
	l.set("core.sessions_replayed", d.f(cSessionsReplayed)/cycles)
	l.set("core.lazy_replays", d.f(cLazyReplays)/cycles)
	l.set("core.sweep_replays", d.f(cSweepReplays)/cycles)
	ttfr, drain, analysis := median(all.ttfr), median(all.drain), median(all.analysis)
	l.set("core.ttfr_ms", ttfr)
	l.set("core.drain_ms", drain)
	l.set("core.analysis_ms", analysis)
	l.set("core.first_request_ms", ttfr-analysis)
	l.set("core.sweep_ms", drain-ttfr)
	l.set("core.replay_ms_per_session", ratio(modelMSTotal, d.f(cSessionsReplayed)))
	readMS := d.f(cReadNS) / 1e6
	l.set("simdisk.reads", d.f(cDiskReads)/cycles)
	l.set("simdisk.sectors_in", d.f(cSectorsIn)/cycles)
	l.set("simdisk.read_model_ms", readMS/cycles)
	l.set("simdisk.read_amp", ratio(d.f(cSectorsIn)*simdisk.SectorSize, all.liveLogBytes))
	l.set("simdisk.read_share_of_drain", ratio(readMS, modelMSTotal))
}

// reportSpans reports the mean model time per traced request of each
// span kind. hopMS is the model time of the reply's hop to the client.
func reportSpans(sum traceSummary, hopMS float64, l *metricSet) {
	mean := func(ns float64) float64 {
		return ratio(modelMS(time.Duration(ns)), float64(sum.requests))
	}
	l.set("core.span.client_call_ms", mean(sum.total[spClientCall]))
	l.set("core.span.to_msp1_handler_ms", mean(sum.total[spToMSP1]))
	l.set("core.span.msp1_handler_self_ms", mean(sum.self[spMSP1Handler]))
	l.set("core.span.ctx_read_shared_ms", mean(sum.total[spReadShared]))
	l.set("core.span.ctx_write_shared_ms", mean(sum.total[spWriteShared]))
	l.set("core.span.ctx_setvar_ms", mean(sum.total[spSetVar]))
	l.set("core.span.ctx_call_ms", mean(sum.total[spCtxCall]))
	l.set("core.span.to_msp2_handler_ms", mean(sum.total[spToMSP2]))
	l.set("core.span.msp2_handler_self_ms", mean(sum.self[spMSP2Handler]))
	l.set("core.span.msp2_exit_to_call_return_ms", mean(sum.total[spMSP2Exit]))
	reply := mean(sum.total[spExecutedToReply])
	l.set("core.span.executed_to_reply_ms", reply)
	l.set("core.span.flush_wait_ms", max(reply-hopMS, 0))
	l.set("core.span.accounted_frac", ratio(sum.total[spClientCall]-sum.self[spClientCall], sum.total[spClientCall]))
}
