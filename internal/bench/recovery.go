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
	TTFRMS      Spread `json:"ttfr_ms"`       // restart → first served reply
	FullDrainMS Spread `json:"full_drain_ms"` // restart → every session live
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
	o.printf("%-10s %28s %34s\n", "sessions", "TTFR", "full drain")
	var out []RecoveryPoint
	for _, n := range counts {
		var ttfrs, drains []float64
		for r := 0; r < recoveryReps; r++ {
			ttfr, drain, err := loadAndRecover(o, n, requestsPer, workPer, false)
			if err != nil {
				return nil, fmt.Errorf("recovery sessions=%d: %w", n, err)
			}
			ttfrs = append(ttfrs, metrics.ModelMS(ttfr, o.TimeScale))
			drains = append(drains, metrics.ModelMS(drain, o.TimeScale))
		}
		p := RecoveryPoint{Sessions: n, Reps: recoveryReps, TTFRMS: spreadOf(ttfrs), FullDrainMS: spreadOf(drains)}
		out = append(out, p)
		o.printf("%-10d %10.1f [%7.1f–%7.1f] %12.1f [%9.1f–%9.1f]\n", p.Sessions,
			p.TTFRMS.Median, p.TTFRMS.Min, p.TTFRMS.Max, p.FullDrainMS.Median, p.FullDrainMS.Min, p.FullDrainMS.Max)
	}
	return out, nil
}

// loadAndRecover is the load-then-recover driver of the recovery
// experiments: it gives one MSP sessions sessions of requestsPer logged,
// never-checkpointed requests (each carrying work of model CPU, which
// replay re-executes), stops it cleanly — every record durable, so
// recovery replays them all — and restarts it. It returns the new
// incarnation's time-to-first-reply for one request into a pre-crash
// session (which blocks only on that session's lazy replay) and the time
// from restart until the background sweep has drained every session.
func loadAndRecover(o Options, sessions, requestsPer int, work time.Duration, serial bool) (ttfr, drain time.Duration, err error) {
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
	cfg.SerialRecovery = serial
	msp, err := chaos.StartMSP(cfg)
	if err != nil {
		return 0, 0, err
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
				if _, err := cs.Call("step", nil); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(probes[i])
	}
	for range probes {
		if err := <-errc; err != nil {
			return 0, 0, err
		}
	}

	if err := msp.Current().Shutdown(); err != nil {
		return 0, 0, err
	}
	start := time.Now() //mspr:wallclock benchmark measures real recovery latency, rescaled to model time for the report
	if err := msp.Restart(); err != nil {
		return 0, 0, err
	}
	srv := msp.Current()
	if _, err := probes[len(probes)/2].Call("step", nil); err != nil {
		return 0, 0, err
	}
	ttfr = srv.TimeToFirstReply()
	for srv.RecoveringSessions() > 0 {
		time.Sleep(100 * time.Microsecond) //mspr:wallclock polling the background sweep, which runs on OS scheduling
	}
	return ttfr, time.Since(start), nil //mspr:wallclock benchmark measures real recovery latency, rescaled to model time for the report
}
