package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mspr/internal/core"
	"mspr/internal/failpoint"
)

// soloStorm builds the one-MSP storm system ("sut" running the counter
// application) the in-package tests exercise Run against.
func soloStorm(t *testing.T, actors, ops int, spec StormSpec) *Storm {
	t.Helper()
	spec.Solo, spec.Actors, spec.Ops = true, actors, ops
	st, err := NewStorm(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestStormWithoutFaultsPasses(t *testing.T) {
	st := soloStorm(t, 4, 10, StormSpec{Seed: 7})
	rep := Run(st.W, nil, Options{})
	if rep.Failed() {
		t.Fatalf("clean storm failed: %v", rep.Errors)
	}
	if rep.Ops != 40 {
		t.Fatalf("ops = %d, want 40", rep.Ops)
	}
}

func TestStormWithCrashRestartsPasses(t *testing.T) {
	st := soloStorm(t, 4, 20, StormSpec{Seed: 7})
	rep := Run(st.W, st.Faults, Options{Seed: 1, FaultEvery: 15})
	if rep.Failed() {
		t.Fatalf("storm failed: %v\n%s", rep.Errors, rep)
	}
	if rep.FaultsFired["crash-sut"] == 0 {
		t.Fatal("no faults fired")
	}
}

func TestStormDetectsViolations(t *testing.T) {
	// A deliberately broken workload must be reported, not masked.
	w := Workload{
		Actors:      2,
		OpsPerActor: 3,
		NewActor: func(i int) (func(int) error, func()) {
			return func(n int) error {
				if n == 2 {
					return errors.New("synthetic violation")
				}
				return nil
			}, nil
		},
	}
	rep := Run(w, nil, Options{})
	if !rep.Failed() {
		t.Fatal("storm masked a violation")
	}
	if rep.String()[:4] != "FAIL" {
		t.Fatalf("report string: %s", rep)
	}
}

func TestStormRejectsEmptyWorkload(t *testing.T) {
	rep := Run(Workload{}, nil, Options{})
	if !rep.Failed() {
		t.Fatal("empty workload accepted")
	}
}

func TestStormMaxFaultsBound(t *testing.T) {
	st := soloStorm(t, 2, 30, StormSpec{Seed: 7})
	rep := Run(st.W, st.Faults, Options{Seed: 2, FaultEvery: 5, MaxFaults: 2})
	if rep.Failed() {
		t.Fatalf("storm failed: %v", rep.Errors)
	}
	if got := rep.FaultsFired["crash-sut"]; got != 2 {
		t.Fatalf("fired %d faults, want exactly 2", got)
	}
}

// TestStormThatCannotProgressFails: the storm's one fault restarts the MSP
// with recovery set to die every time, so the process stays down and no
// call can complete. Run must notice, say which actors are stuck, which
// process is down and what was fired, and return instead of hanging —
// both when the fault lands mid-storm and when it is the last thing the
// storm does before its final check.
func TestStormThatCannotProgressFails(t *testing.T) {
	const actors, ops = 3, 4
	for _, tc := range []struct {
		name       string
		faultEvery int
		want       string
	}{
		{"mid-storm", 5, "stalled actors: 0 (after op "},
		{"last-fault", actors * ops, "after the last fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := soloStorm(t, actors, ops, StormSpec{Seed: 7})
			fired := make(chan struct{})
			failStop := Fault{Name: "fail-stop-sut", Fire: func() error {
				defer close(fired)
				st.Back.FP.Enable(core.FPRecoveryBeforeScan, failpoint.Times(-1))
				return st.Back.Restart()
			}}
			// Mid-storm, every actor's third operation waits for the fault:
			// the fifth operation overall triggers it, so the storm cannot
			// finish first, and every actor is stuck in its second or
			// third.
			w, newActor := st.W, st.W.NewActor
			w.NewActor = func(i int) (func(int) error, func()) {
				op, done := newActor(i)
				return func(n int) error {
					if n > 2 && tc.faultEvery < actors*ops {
						<-fired
					}
					return op(n)
				}, done
			}
			start := time.Now()
			rep := Run(w, []Fault{failStop}, Options{Seed: 1, FaultEvery: tc.faultEvery, MaxFaults: 1})
			if took := time.Since(start); took > 10*time.Second {
				t.Errorf("a storm that cannot progress took %v to fail", took)
			}
			if !st.Back.Halted() {
				t.Fatal("the MSP whose restart fail-stopped does not report halted")
			}
			var stall error
			for _, err := range rep.Errors {
				if errors.Is(err, ErrStalled) {
					stall = err
				}
			}
			if stall == nil {
				t.Fatalf("no stall diagnosis in %v", rep.Errors)
			}
			for _, want := range []string{tc.want, "halted: sut", "[fail-stop-sut]"} {
				if !strings.Contains(stall.Error(), want) {
					t.Errorf("diagnosis %q lacks %q", stall, want)
				}
			}
		})
	}
}

func TestReportStringPass(t *testing.T) {
	rep := Report{Ops: 10, FaultsFired: map[string]int{}}
	if rep.String()[:4] != "PASS" {
		t.Fatalf("report: %s", rep)
	}
}

// TestStormManySeeds runs a battery of small deterministic storms — the
// `go test` version of cmd/mspr-chaos. Each seed produces a different
// crash schedule; all must preserve exactly-once execution and
// shared-state consistency. (This battery is what first exposed the
// epoch-collision and lost-update bugs described in EXPERIMENTS.md.)
func TestStormManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("storm battery skipped in -short mode")
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := soloStorm(t, 3, 15, StormSpec{Seed: 7})
			rep := Run(st.W, st.Faults, Options{Seed: seed, FaultEvery: 10})
			if rep.Failed() {
				t.Fatalf("%s\n%v", rep, rep.Errors)
			}
		})
	}
}

// TestStormCrashSurface is the headline robustness storm: a seeded
// schedule over the whole crash surface (CrashSurface: torn writes,
// anchor corruption, crashes injected into recovery itself — including
// mid-replay, which kills the incarnation *after* Start returned), with
// exactly-once session counters and shared-state
// consistency verified after every incarnation change. Clients use the
// capped-exponential backoff so a recovering server sees a spread-out
// retry wave.
func TestStormCrashSurface(t *testing.T) {
	seeds := []int64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Segments small enough that this short storm rotates and
			// truncates: the rotation and truncation rows are reachable.
			st := soloStorm(t, 4, 25, StormSpec{Seed: seed, Failpoints: true, SegmentSize: 4 << 10})
			rep := Run(st.W, st.Faults, Options{Seed: seed, FaultEvery: 12})
			t.Log(rep)
			if rep.Failed() {
				t.Fatalf("%s\n%v", rep, rep.Errors)
			}
			total := 0
			for _, n := range rep.FaultsFired {
				total += n
			}
			if total == 0 {
				t.Fatal("storm fired no faults")
			}
			// The armed points must actually have been hit — a storm
			// whose failpoints were all disarmed unconsumed exercised
			// nothing but plain restarts.
			var hits int64
			for _, cp := range CrashSurface {
				hits += st.Back.FP.Hits(armedName(cp.Point, "sut"))
			}
			if hits == 0 {
				t.Fatal("no failpoint was ever consumed")
			}
		})
	}
}
