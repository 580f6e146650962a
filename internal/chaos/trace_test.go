package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestScheduleDeterminism is the reproducibility acceptance check: the
// same seed over the same workload yields a byte-identical fault
// schedule across independent runs, and replaying the recorded trace
// fires the identical sequence again.
func TestScheduleDeterminism(t *testing.T) {
	// Two names for the same restart: a schedule over one fault would be
	// the same whatever the seed.
	system := func() (Workload, []Fault) {
		st := soloStorm(t, 3, 20, StormSpec{Seed: 7})
		return st.W, []Fault{st.Back.RestartFault("crash-a"), st.Back.RestartFault("crash-b")}
	}
	storm := func() Report {
		w, faults := system()
		return Run(w, faults, Options{Seed: 42, FaultEvery: 10})
	}
	r1, r2 := storm(), storm()
	if r1.Failed() || r2.Failed() {
		t.Fatalf("storms failed: %v / %v", r1.Errors, r2.Errors)
	}
	if len(r1.Schedule) == 0 {
		t.Fatal("storm recorded no schedule")
	}
	if !reflect.DeepEqual(r1.Schedule, r2.Schedule) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", r1.Schedule, r2.Schedule)
	}
	if r1.DroppedTriggers != 0 {
		// Determinism only holds when nothing was dropped; this workload
		// is small enough that it never is.
		t.Fatalf("dropped %d triggers", r1.DroppedTriggers)
	}
	if r1.Seed != 42 {
		t.Fatalf("report seed = %d, want 42", r1.Seed)
	}

	// Round-trip through the JSON trace and replay: identical schedule.
	tr := StormSpec{Actors: 3, Ops: 20, SVCkptEvery: 2}.Trace(Options{Seed: 42, FaultEvery: 10}, r1)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Fatalf("trace round trip mismatch:\n%+v\n%+v", tr, back)
	}
	if got := (StormSpec{}).Sized(back); got.SVCkptEvery != 2 || got.Actors != 3 || got.Ops != 20 || got.Seed != 42 {
		t.Fatalf("spec sized to the decoded trace = %+v: the replay would build a different system", got)
	}
	w, faults := system()
	r3 := Replay(w, faults, back)
	if r3.Failed() {
		t.Fatalf("replay failed: %v", r3.Errors)
	}
	if !reflect.DeepEqual(r3.Schedule, r1.Schedule) {
		t.Fatalf("replay fired a different schedule:\n%v\n%v", r3.Schedule, r1.Schedule)
	}
}

// TestFaultErrorContinues pins the fix for the silent-stop bug: a fault
// whose Fire errors used to shut down all further injection without a
// trace. Now the error is recorded and the storm keeps firing.
func TestFaultErrorContinues(t *testing.T) {
	w := Workload{
		Actors:      1,
		OpsPerActor: 40,
		NewActor: func(int) (func(int) error, func()) {
			return func(int) error { return nil }, nil
		},
	}
	faults := []Fault{
		{Name: "sick", Fire: func() error { return errors.New("injector broken") }},
		{Name: "good", Fire: func() error { return nil }},
	}
	rep := Run(w, faults, Options{Seed: 5, FaultEvery: 1})
	if rep.FaultErrors == 0 {
		t.Fatal("sick fault never drawn — pick another seed")
	}
	if rep.FaultsFired["good"] == 0 {
		t.Fatal("good fault never drawn — pick another seed")
	}
	// The load is trivially fast, so the drain guarantees every trigger
	// is consumed: the schedule must cover all 40, past every error.
	if len(rep.Schedule) != 40 {
		t.Fatalf("schedule has %d attempts, want 40 (injection stopped early)", len(rep.Schedule))
	}
	firstSick := -1
	for i, name := range rep.Schedule {
		if name == "sick" {
			firstSick = i
			break
		}
	}
	goodAfter := false
	for _, name := range rep.Schedule[firstSick+1:] {
		if name == "good" {
			goodAfter = true
			break
		}
	}
	if !goodAfter {
		t.Fatalf("no fault fired after the first error; schedule: %v", rep.Schedule)
	}
	if !rep.Failed() {
		t.Fatal("fault errors must still fail the storm")
	}
	if got := fmt.Sprint(rep); !bytes.Contains([]byte(got), []byte("fault errors")) {
		t.Fatalf("report does not surface fault errors: %s", got)
	}
}

// TestDroppedTriggersCounted makes the fast-workload trigger drop
// visible: while one Fire blocks, the workload races far ahead and the
// overflow must land in the report instead of vanishing.
func TestDroppedTriggersCounted(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	w := Workload{
		Actors:      1,
		OpsPerActor: 600,
		NewActor: func(int) (func(int) error, func()) {
			return func(n int) error {
				if n == 600 {
					once.Do(func() { close(release) })
				}
				return nil
			}, nil
		},
	}
	var first sync.Once
	faults := []Fault{{Name: "slow", Fire: func() error {
		blocked := false
		first.Do(func() { blocked = true })
		if blocked {
			<-release
		}
		return nil
	}}}
	rep := Run(w, faults, Options{Seed: 1, FaultEvery: 1})
	if rep.Failed() {
		t.Fatalf("storm failed: %v", rep.Errors)
	}
	if rep.DroppedTriggers == 0 {
		t.Fatal("overflowed triggers were not counted")
	}
	if got := fmt.Sprint(rep); !bytes.Contains([]byte(got), []byte("triggers dropped")) {
		t.Fatalf("report does not surface dropped triggers: %s", got)
	}
}

// TestReplayEmptyScheduleFiresNothing: a non-nil empty schedule is the
// minimizer's "no faults at all" probe and must suppress injection even
// with faults available.
func TestReplayEmptyScheduleFiresNothing(t *testing.T) {
	w := Workload{
		Actors:      1,
		OpsPerActor: 10,
		NewActor: func(int) (func(int) error, func()) {
			return func(int) error { return nil }, nil
		},
	}
	fired := false
	faults := []Fault{{Name: "f", Fire: func() error { fired = true; return nil }}}
	rep := Run(w, faults, Options{Seed: 1, FaultEvery: 1, Schedule: []string{}})
	if rep.Failed() {
		t.Fatalf("storm failed: %v", rep.Errors)
	}
	if fired || len(rep.Schedule) != 0 {
		t.Fatalf("empty schedule fired faults: %v", rep.Schedule)
	}
}

// TestReplayUnknownFault: a schedule naming a fault the builder no
// longer provides is a loud error, and the rest of the schedule still
// replays.
func TestReplayUnknownFault(t *testing.T) {
	w := Workload{
		Actors:      1,
		OpsPerActor: 10,
		NewActor: func(int) (func(int) error, func()) {
			return func(int) error { return nil }, nil
		},
	}
	faults := []Fault{{Name: "known", Fire: func() error { return nil }}}
	rep := Run(w, faults, Options{Seed: 1, FaultEvery: 1, Schedule: []string{"ghost", "known"}})
	if !rep.Failed() {
		t.Fatal("unknown fault name not reported")
	}
	if rep.FaultsFired["known"] != 1 {
		t.Fatalf("schedule did not continue past the unknown name: %v", rep.FaultsFired)
	}
}

// minSystem is a synthetic system for exercising the minimizer: the
// "bad" fault plants a defect that the final check then detects, and
// "noise" faults do nothing. Each build starts pristine.
type minSystem struct{ broken bool }

func (m *minSystem) build(Trace) (Workload, []Fault, func()) {
	m.broken = false
	w := Workload{
		Actors:      4,
		OpsPerActor: 8,
		NewActor: func(int) (func(int) error, func()) {
			return func(int) error { return nil }, nil
		},
		FinalCheck: func() error {
			if m.broken {
				return errors.New("defect planted")
			}
			return nil
		},
	}
	faults := []Fault{
		{Name: "noise", Fire: func() error { return nil }},
		{Name: "bad", Fire: func() error { m.broken = true; return nil }},
	}
	return w, faults, nil
}

// TestMinimize shrinks a noisy failing trace to the single fault that
// matters and the smallest workload that still triggers it.
func TestMinimize(t *testing.T) {
	m := &minSystem{}
	orig := Trace{
		Seed:        9,
		Actors:      4,
		OpsPerActor: 8,
		FaultEvery:  1,
		Schedule:    []string{"noise", "noise", "bad", "noise", "noise"},
	}
	min, stats := Minimize(m.build, orig)
	if !stats.Reproduced {
		t.Fatal("original trace did not reproduce")
	}
	if !reflect.DeepEqual(min.Schedule, []string{"bad"}) {
		t.Fatalf("minimized schedule = %v, want [bad]", min.Schedule)
	}
	if min.Actors != 1 || min.OpsPerActor != 1 {
		t.Fatalf("minimized workload = %d actors × %d ops, want 1×1", min.Actors, min.OpsPerActor)
	}
	if stats.Attempts < 5 {
		t.Fatalf("suspiciously few attempts: %d", stats.Attempts)
	}
	// The minimized trace must itself still reproduce.
	w, faults, _ := m.build(min)
	if rep := Replay(w, faults, min); !rep.Failed() {
		t.Fatal("minimized trace does not reproduce")
	}
}

// TestMinimizeNonFailing: a passing trace is returned untouched with
// Reproduced=false — the minimizer never "shrinks" a storm that does
// not fail.
func TestMinimizeNonFailing(t *testing.T) {
	m := &minSystem{}
	orig := Trace{Actors: 2, OpsPerActor: 2, FaultEvery: 1, Schedule: []string{"noise"}}
	min, stats := Minimize(m.build, orig)
	if stats.Reproduced {
		t.Fatal("passing trace reported as reproduced")
	}
	if stats.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", stats.Attempts)
	}
	if !reflect.DeepEqual(min, orig) {
		t.Fatalf("passing trace was modified: %+v", min)
	}
}
