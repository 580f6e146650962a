package oracle_test

import (
	"testing"
	"time"

	"mspr/internal/chaos"
)

// TestOverloadStormOracleClean is the in-tree saturation storm — the
// `go test` size of `mspr-chaos -overload`, at a time scale slow enough to
// keep the flood to some ten thousand calls: an open-loop bursty flood at
// eight times the server's measured capacity, with Zipf-skewed keys,
// per-call deadlines and a circuit breaker on the client, and crash-restarts mid-saturation. The oracle records the full
// history; the storm requires zero correctness violations — shedding must
// never manufacture or lose an execution — plus evidence it actually
// shed, and a queue depth bounded by the admission-lane capacities.
//
// Healthy, the storm takes some 2 s under -race at GOMAXPROCS=8. One still
// running after overloadBound is stuck (a call of the flood resent forever,
// or a restart that never completes) and fails by name instead of hanging
// until go test's timeout.
func TestOverloadStormOracleClean(t *testing.T) {
	const overloadBound = 60 * time.Second
	var rep *chaos.OverloadReport
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep, err = chaos.RunOverload(chaos.OverloadSpec{
			Seed: 7, Scale: 0.05, Dup: 0.2, Factor: 8, Duration: 600 * time.Millisecond,
			Keys: 4, Burst: 8, Crashes: 2, QueueDepth: 16,
		})
	}()
	select {
	case <-done:
	case <-time.After(overloadBound):
		t.Fatalf("chaos.RunOverload has not returned within %v", overloadBound)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Error(f)
	}
	if rep.Other > 0 {
		t.Errorf("%d flooded calls failed with non-overload errors", rep.Other)
	}
	if sheds := rep.CircuitOpen + rep.Deadline; sheds == 0 {
		t.Errorf("no flooded call was shed client-side (ok=%d, server sheds=%d)", rep.OK, rep.ServerSheds)
	}
	t.Logf("overload storm: capacity %.0f ops/s, offered=%d ok=%d serverSheds=%d events=%d",
		rep.Capacity, rep.Offered, rep.OK, rep.ServerSheds, rep.OracleEvents)
}
