package main

import (
	"fmt"
	"os"
	"time"

	"mspr/internal/chaos"
	"mspr/internal/metrics"
)

// runOverloadStorm runs the -overload saturation storm (see
// chaos.RunOverload), prints its report and returns the exit code.
func runOverloadStorm(spec chaos.OverloadSpec) int {
	rep, err := chaos.RunOverload(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("overload: closed-loop capacity %.0f ops/s (%d actors, %v); flooded open-loop at %.0f ops/s (%.1fx) for %v\n",
		rep.Capacity, chaos.MeasureActors, rep.MeasureFor.Round(time.Millisecond),
		rep.Capacity*spec.Factor, spec.Factor, spec.Duration)
	fmt.Printf("overload: offered=%d (%.0f ops/s achieved, %.1fx capacity) ok=%d circuitOpen=%d deadline=%d appErr=%d other=%d\n",
		rep.Offered, rep.Achieved, rep.Achieved/rep.Capacity, rep.OK,
		rep.CircuitOpen, rep.Deadline, rep.AppErr, rep.Other)
	printOverloadMetrics()
	if sl := &rep.ShedLatency; sl.Count() > 0 {
		fmt.Printf("overload: timeToShed p50=%v p95=%v max=%v (%d sheds client-side)\n",
			sl.Percentile(50).Round(time.Millisecond), sl.Percentile(95).Round(time.Millisecond),
			sl.Max().Round(time.Millisecond), sl.Count())
	}
	fmt.Printf("oracle: %d events recorded\n", rep.OracleEvents)
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, " -", f)
		}
		fmt.Println("OVERLOAD STORM FAILED")
		return 1
	}
	fmt.Println("OVERLOAD STORM PASSED")
	return 0
}

// printOverloadMetrics prints the overload-control counters; every storm
// summary includes it so admission behaviour is visible even in the
// closed-loop storms (where sheds should be rare to absent).
func printOverloadMetrics() {
	o := &metrics.Overload
	fmt.Printf("overload: admitted=%d admittedPriority=%d priorityOverflow=%d shedAtAdmission=%d shedExpired=%d breakerOpens=%d\n",
		o.Admitted.Load(), o.AdmittedPriority.Load(), o.PriorityOverflow.Load(), o.ShedAtAdmission.Load(),
		o.ShedExpired.Load(), o.BreakerOpens.Load())
	fmt.Printf("overload: queueDepthPeak=%d priorityDepthPeak=%d\n",
		o.QueueDepthPeak.Load(), o.PriorityDepthPeak.Load())
}
