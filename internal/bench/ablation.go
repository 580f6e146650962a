package bench

import (
	"fmt"
	"time"

	"mspr/internal/metrics"
)

// Ablations quantify the design choices DESIGN.md calls out beyond the
// paper's own tables: parallel session recovery (§1.3 "recovery
// parallelism") and the value-logging overhead's dependence on shared-
// state size (§3.3 assumes shared state is small and infrequently
// accessed).

// AblationRecoveryResult reports one recovery-time measurement.
type AblationRecoveryResult struct {
	Serial     bool
	Sessions   int
	RecoveryMS float64 // model ms from restart until every session is live
}

// RunAblationParallelRecovery measures crash-recovery time for an MSP
// with many active sessions, comparing parallel session replay against a
// serial ablation, and prints both. Each session has logged (unreplayed)
// requests carrying simulated method CPU, so parallel replay can overlap
// the re-execution of different sessions.
func RunAblationParallelRecovery(o Options, sessions, requestsPer int) (parallel, serial AblationRecoveryResult, err error) {
	o = o.withDefaults()
	const work = 2 * time.Millisecond
	measure := func(serial bool) (AblationRecoveryResult, error) {
		rec, err := loadAndRecover(o, sessions, requestsPer, work, serial)
		return AblationRecoveryResult{Serial: serial, Sessions: sessions, RecoveryMS: metrics.ModelMS(rec.drain, o.TimeScale)}, err
	}
	if parallel, err = measure(false); err != nil {
		return
	}
	if serial, err = measure(true); err != nil {
		return
	}
	o.printf("Ablation — parallel session recovery (%d sessions × %d logged requests):\n", sessions, requestsPer)
	o.printf("  parallel recovery: %10.1f model ms\n", parallel.RecoveryMS)
	o.printf("  serial recovery:   %10.1f model ms (%.1fx slower)\n",
		serial.RecoveryMS, serial.RecoveryMS/parallel.RecoveryMS)
	return parallel, serial, nil
}

// AblationSharedSizeResult reports value-logging cost at one shared-
// variable size.
type AblationSharedSizeResult struct {
	SharedBytes   int
	MeanMS        float64
	LogBytesPerOp float64
}

// RunAblationSharedSize sweeps the shared-variable size to show the
// value-logging trade-off: with the paper's small shared state the
// overhead is modest; as values grow, logging every read and write by
// value becomes expensive — which is why value logging suits the
// middleware regime (§3.3).
func RunAblationSharedSize(o Options, sizes []int) ([]AblationSharedSizeResult, error) {
	o = o.withDefaults()
	if len(sizes) == 0 {
		sizes = []int{128, 1 << 10, 8 << 10, 32 << 10}
	}
	o.printf("Ablation — value logging vs shared-state size (LoOptimistic):\n")
	o.printf("%-12s %12s %16s\n", "shared size", "mean (ms)", "log bytes/req")
	var out []AblationSharedSizeResult
	for _, size := range sizes {
		c := paperConfig(LoOptimistic)
		c.sharedSize = size
		st, err := runOne(o, c)
		if err != nil {
			return nil, fmt.Errorf("shared size %d: %w", size, err)
		}
		r := AblationSharedSizeResult{SharedBytes: size, MeanMS: st.MeanMS, LogBytesPerOp: st.LogBytesPerOp}
		out = append(out, r)
		o.printf("%-12d %12.3f %16.0f\n", size, r.MeanMS, r.LogBytesPerOp)
	}
	return out, nil
}
