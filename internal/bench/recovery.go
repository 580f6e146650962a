package bench

import (
	"fmt"
	"sort"
	"time"

	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
)

// The instant-recovery experiment quantifies what the analysis/replay
// split buys: after a crash with N live sessions of unreplayed work, the
// server accepts traffic as soon as the analysis scan finishes, so
// time-to-first-reply costs one log scan plus one on-demand session
// replay and stays roughly flat in N, while the time to drain every
// session back to live is the background sweep's job and grows with N.

// Spread is the median, minimum and maximum of a point's repetitions.
type Spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func spreadOf(xs []float64) Spread {
	sort.Float64s(xs)
	return Spread{Median: xs[len(xs)/2], Min: xs[0], Max: xs[len(xs)-1]}
}

// RecoveryPoint is one measured point: latency after a crash at a given
// session count, in model milliseconds, over Reps fresh systems.
type RecoveryPoint struct {
	Sessions    int    `json:"sessions"`
	Reps        int    `json:"reps"`
	AnalysisMS  Spread `json:"analysis_ms"`   // restart → Start returned: the analysis scan and what surrounds it
	TTFRMS      Spread `json:"ttfr_ms"`       // restart → first served reply
	FullDrainMS Spread `json:"full_drain_ms"` // restart → every session live
	// The analysis scans' counters, summed over the repetitions: blocks
	// taken from the read-ahead stream (read while the block before was
	// parsed), blocks the scan read itself, records it visited.
	ScanBlocksStreamed int64 `json:"scan_blocks_streamed"`
	ScanBlocksSync     int64 `json:"scan_blocks_sync"`
	ScanRecords        int64 `json:"scan_records"`
}

// recoveryReps is how many times each point is measured: one run of the
// time to first reply is host CPU inflated into model time and says little
// alone.
const recoveryReps = 3

// RunRecoveryLatency measures TTFR and full-drain time versus session
// count. Every session has requestsPer logged (never-checkpointed)
// requests carrying simulated method CPU, so replay cost is dominated by
// re-execution and the sweep's growth with N is visible.
func RunRecoveryLatency(o Options, counts []int) ([]RecoveryPoint, error) {
	o = o.withDefaults()
	if len(counts) == 0 {
		counts = []int{100, 1000, 10000}
	}
	const (
		requestsPer = 2
		workPer     = 5 * time.Millisecond // model CPU per replayed request
	)
	o.printf("Instant recovery — time-to-first-reply vs session count (%d logged requests/session, model ms, median [min–max] of %d)\n", requestsPer, recoveryReps)
	o.printf("%-10s %28s %28s %34s   %s\n", "sessions", "analysis", "TTFR", "full drain", "scan blocks streamed/sync, records")
	var out []RecoveryPoint
	for _, n := range counts {
		p := RecoveryPoint{Sessions: n, Reps: recoveryReps}
		var analyses, ttfrs, drains []float64
		for r := 0; r < recoveryReps; r++ {
			rec, err := loadAndRecover(o, n, requestsPer, workPer, false)
			if err != nil {
				return nil, fmt.Errorf("recovery sessions=%d: %w", n, err)
			}
			analyses = append(analyses, metrics.ModelMS(rec.analysis, o.TimeScale))
			ttfrs = append(ttfrs, metrics.ModelMS(rec.ttfr, o.TimeScale))
			drains = append(drains, metrics.ModelMS(rec.drain, o.TimeScale))
			p.ScanBlocksStreamed += rec.streamed
			p.ScanBlocksSync += rec.synced
			p.ScanRecords += rec.records
		}
		p.AnalysisMS, p.TTFRMS, p.FullDrainMS = spreadOf(analyses), spreadOf(ttfrs), spreadOf(drains)
		out = append(out, p)
		o.printf("%-10d %10.1f [%7.1f–%7.1f] %10.1f [%7.1f–%7.1f] %12.1f [%9.1f–%9.1f]   %d/%d, %d\n", p.Sessions,
			p.AnalysisMS.Median, p.AnalysisMS.Min, p.AnalysisMS.Max, p.TTFRMS.Median, p.TTFRMS.Min, p.TTFRMS.Max,
			p.FullDrainMS.Median, p.FullDrainMS.Min, p.FullDrainMS.Max, p.ScanBlocksStreamed, p.ScanBlocksSync, p.ScanRecords)
	}
	return out, nil
}

// recovered is what one load-then-recover run measured: the restart's
// crash-to-ready time (the analysis pass), the new incarnation's time to
// first reply, the time from restart until the sweep had drained every
// session, and the analysis scan's counters.
type recovered struct {
	analysis, ttfr, drain     time.Duration
	streamed, synced, records int64
}

// loadAndRecover is the load-then-recover driver of the recovery
// experiments: it gives one MSP sessions sessions of requestsPer logged,
// never-checkpointed requests (each carrying work of model CPU, which
// replay re-executes), stops it cleanly — every record durable, so
// recovery replays them all — and restarts it. The time to first reply is
// that of one request into a pre-crash session, which blocks only on that
// session's lazy replay.
func loadAndRecover(o Options, sessions, requestsPer int, work time.Duration, serial bool) (rec recovered, err error) {
	net := simnet.New(simnet.Config{TimeScale: o.TimeScale})
	def := core.Definition{Methods: map[string]core.Handler{
		"step": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
			ctx.Work(work)
			return chaos.BumpSession(ctx), nil
		},
	}}
	cfg := core.NewConfig("rec-msp", core.NewDomain("rec", 0, o.TimeScale),
		simdisk.NewDisk(simdisk.DefaultModel(o.TimeScale)), net, def)
	cfg.SessionCkptThreshold = 1 << 40 // never checkpoint: replay everything
	if serial {
		// One sweep unit at a time (sweepShare(3) == 1), two workers left for the probe.
		cfg.Workers = 3
	}
	msp, err := chaos.StartMSP(cfg)
	if err != nil {
		return rec, err
	}
	defer msp.Crash()
	client := core.NewClient("rec-client", net, rpc.DefaultCallOptions(o.TimeScale))
	defer client.Close()

	probes := make([]*core.ClientSession, sessions)
	errc := make(chan error, sessions)
	for i := range probes {
		probes[i] = client.Session("rec-msp")
		go func(cs *core.ClientSession) {
			for j := 0; j < requestsPer; j++ {
				if _, err := chaos.BoundedCall(cs, j+1, "step", nil); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(probes[i])
	}
	for range probes {
		if err := <-errc; err != nil {
			return rec, err
		}
	}

	if err := msp.Current().Shutdown(); err != nil {
		return rec, err
	}
	w := &metrics.Wal
	streamed, synced, records := w.ScanBlocksStreamed.Load(), w.ScanBlocksSync.Load(), w.ScanRecords.Load()
	start := simtime.Now()
	if err := msp.Restart(); err != nil {
		return rec, err
	}
	rec.analysis = msp.Restarts.Max() // the one restart's crash-to-ready time
	rec.streamed, rec.synced, rec.records = w.ScanBlocksStreamed.Load()-streamed, w.ScanBlocksSync.Load()-synced, w.ScanRecords.Load()-records
	srv := msp.Current()
	if _, err := chaos.BoundedCall(probes[len(probes)/2], requestsPer+1, "step", nil); err != nil {
		return rec, err
	}
	rec.ttfr = srv.TimeToFirstReply()
	for srv.RecoveringSessions() > 0 {
		time.Sleep(100 * time.Microsecond) //mspr:wallclock a poll from outside the model: on simtime.Sleep it would keep the driver spinning through the drain it measures
	}
	rec.drain = simtime.Since(start)
	return rec, nil
}
