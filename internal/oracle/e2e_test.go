package oracle_test

import (
	"bytes"
	"strings"
	"testing"

	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/oracle"
)

// newSUT builds one recoverable MSP under oracle observation, reached
// over a network that duplicates messages — the environment in which
// broken request deduplication becomes visible. brokenDedup arms
// core.FPDedupSkip for every hit, so a network-duplicated request
// re-executes instead of being absorbed by the receive log.
func newSUT(t *testing.T, seed int64, actors, ops int, brokenDedup bool) *chaos.Storm {
	t.Helper()
	st, err := chaos.NewStorm(sutSpec(seed, actors, ops, brokenDedup))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func sutSpec(seed int64, actors, ops int, brokenDedup bool) chaos.StormSpec {
	spec := chaos.StormSpec{Solo: true, Oracle: true, Seed: seed, Dup: 0.4,
		Actors: actors, Ops: ops, BreakDedup: brokenDedup}
	if brokenDedup {
		// A duplicate reaches the MSP together with its original. At time
		// scale 0, whether it runs again after the original or is answered
		// Busy once the original's reply has already reached the client
		// (and is ignored) depends only on goroutine scheduling. With
		// modelled time the original's reply waits for its log flush, so
		// the Busy reaches the client first and the client's resend runs
		// the request again.
		spec.Scale = 0.005
	}
	return spec
}

// TestOracleCleanStormPasses: with dedup intact, a storm over a lossy,
// duplicating network with crash-restart faults must satisfy all four
// checkers — resends, duplicate deliveries and recoveries included.
func TestOracleCleanStormPasses(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		name := "no-faults"
		if faulty {
			name = "crash-faults"
		}
		t.Run(name, func(t *testing.T) {
			s := newSUT(t, 11, 4, 20, false)
			o := chaos.Options{Seed: 11}
			if faulty {
				o.FaultEvery = 15
			}
			rep := chaos.Run(s.W, s.Faults, o)
			if rep.Failed() {
				t.Fatalf("%s\n%v", rep, rep.Errors)
			}
			if s.Rec.Len() == 0 {
				t.Fatal("oracle recorded nothing")
			}
		})
	}
}

// TestOracleInstantRecoveryStorm verifies exactly-once across the
// concurrent-recovery window: crash-point faults kill the SUT between
// analysis and first reply (FPRecoveryBeforeServe), during an on-demand
// session replay (FPLazyReplay), and inside the background sweep
// (FPSweepMid), while clients keep retrying into sessions that have not
// been replayed yet. The oracle's full-history checkers must stay clean.
// Runs under -race via the CI race step, putting the recovery-unit state
// machine (unrecovered → replaying → live) under the race detector.
func TestOracleInstantRecoveryStorm(t *testing.T) {
	const seed = 29
	s := newSUT(t, seed, 6, 25, false)
	faults := append(s.Faults, s.Back.SurfaceFaults(chaos.AnyMSP,
		core.FPRecoveryBeforeServe, core.FPLazyReplay, core.FPSweepMid)...)
	rep := chaos.Run(s.W, faults, chaos.Options{Seed: seed, FaultEvery: 12})
	if rep.Failed() {
		t.Fatalf("%s\n%v", rep, rep.Errors)
	}
	if s.Rec.Len() == 0 {
		t.Fatal("oracle recorded nothing")
	}
}

// TestOracleSVCheckpointStorm is the storm that lives on the background
// shared-variable checkpoint: at a threshold of 2 (every other storm runs
// the engine's 64 and takes a handful) Back schedules a checkpoint of its
// counter on every second operation, each one a distributed flush toward
// Front under the variable's lock, racing the next writers, the crash-
// restarts and the crash surface of all three processes — and, the
// segments being tiny, the MSP checkpoints whose scan start those
// checkpoint records move. A checkpoint that recorded a stale or orphan
// value would leave the counter unexplainable by the executions that
// survive: the shared-state checker in the final verdict.
func TestOracleSVCheckpointStorm(t *testing.T) {
	const seed = 17
	spec := chaos.StormSpec{Oracle: true, Seed: seed, Actors: 8, Ops: 150,
		Failpoints: true, SegmentSize: 16 << 10, SVCkptEvery: 2}
	opts := chaos.Options{Seed: seed, FaultEvery: 100}
	rep, st, err := chaos.RunStorm(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		var trace bytes.Buffer
		_ = spec.Trace(opts, rep).Encode(&trace) // a bytes.Buffer does not fail
		t.Fatalf("%s\n%v\nreplay with: mspr-chaos -oracle -failpoints -segment-size 16384 -replay <this trace>\n%s", rep, rep.Errors, &trace)
	}
	if st.Rec.Len() == 0 {
		t.Fatal("oracle recorded nothing")
	}
}

// TestOracleCatchesBrokenDedup is the end-to-end acceptance test: with
// deduplication deliberately broken, the exactly-once checker must fail
// the storm, and Minimize must shrink the failure to a replayable JSON
// trace with at most 3 faults that still reproduces on a fresh system.
func TestOracleCatchesBrokenDedup(t *testing.T) {
	const seed = 3
	s := newSUT(t, seed, 4, 20, true)
	rep := chaos.Run(s.W, s.Faults, chaos.Options{Seed: seed, FaultEvery: 15, MaxFaults: 3})
	if !rep.Failed() {
		t.Fatal("broken dedup was not detected")
	}
	found := false
	for _, err := range rep.Errors {
		if strings.Contains(err.Error(), oracle.CheckExactlyOnce) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no exactly-once violation among: %v", rep.Errors)
	}

	// Minimize against fresh broken systems; every candidate storm gets
	// pristine state, its own recorder, and the candidate's shape.
	build := sutSpec(seed, 4, 20, true).Build
	orig := chaos.NewTrace(chaos.Workload{Actors: 4, OpsPerActor: 20},
		chaos.Options{Seed: seed, FaultEvery: 15}, rep)
	min, stats := chaos.Minimize(build, orig)
	if !stats.Reproduced {
		t.Fatal("original failing trace did not reproduce")
	}
	if len(min.Schedule) > 3 {
		t.Fatalf("minimized schedule has %d faults, want <= 3: %v", len(min.Schedule), min.Schedule)
	}

	// The minimized trace must survive a JSON round trip and still fail.
	var buf bytes.Buffer
	if err := min.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := chaos.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w, faults, done := build(back)
	defer done()
	if rep := chaos.Replay(w, faults, back); !rep.Failed() {
		t.Fatalf("replayed minimized trace no longer fails: %s", rep)
	}
}
