package bench

import (
	"fmt"
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

// RecoveryPoint is one measured point: latency after a crash at a given
// session count, in model milliseconds.
type RecoveryPoint struct {
	Sessions    int     `json:"sessions"`
	TTFRMS      float64 `json:"ttfr_ms"`       // restart → first served reply
	FullDrainMS float64 `json:"full_drain_ms"` // restart → every session live
}

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
	o.printf("Instant recovery — time-to-first-reply vs session count (%d logged requests/session, model ms)\n", requestsPer)
	o.printf("%-10s %12s %14s\n", "sessions", "TTFR", "full drain")
	var out []RecoveryPoint
	for _, n := range counts {
		ttfr, drain, err := loadAndRecover(o, n, requestsPer, workPer, false)
		if err != nil {
			return nil, fmt.Errorf("recovery sessions=%d: %w", n, err)
		}
		p := RecoveryPoint{Sessions: n, TTFRMS: metrics.ModelMS(ttfr, o.TimeScale), FullDrainMS: metrics.ModelMS(drain, o.TimeScale)}
		out = append(out, p)
		o.printf("%-10d %12.2f %14.1f\n", p.Sessions, p.TTFRMS, p.FullDrainMS)
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
