package chaos

import (
	"encoding/json"
	"fmt"
	"io"
)

// Trace is the portable, replayable description of one storm: the
// workload shape plus the exact ordered fault schedule. A failing storm
// serialized to a Trace reproduces on another machine or another day —
// the schedule replays verbatim, no seed re-derivation involved.
type Trace struct {
	// Seed is carried for provenance (and drives any residual seeded
	// choices inside the workload itself); the fault sequence comes from
	// Schedule, not the seed.
	Seed        int64    `json:"seed"`
	Actors      int      `json:"actors"`
	OpsPerActor int      `json:"ops_per_actor"`
	FaultEvery  int      `json:"fault_every"`
	Schedule    []string `json:"schedule"`
	// SVCkptEvery is StormSpec.SVCkptEvery: the storm's MSPs were built
	// with it, so a replay must be too (0: the engine's default).
	SVCkptEvery int `json:"sv_ckpt_every,omitempty"`
	// Note is free-form provenance ("minimized from storm-7.json", the
	// failing checker, ...).
	Note string `json:"note,omitempty"`
}

// NewTrace captures a finished storm as a replayable trace.
func NewTrace(w Workload, o Options, rep Report) Trace {
	sched := append([]string{}, rep.Schedule...)
	return Trace{
		Seed:        o.Seed,
		Actors:      w.Actors,
		OpsPerActor: w.OpsPerActor,
		FaultEvery:  o.FaultEvery,
		Schedule:    sched,
	}
}

// Options converts the trace into replay-mode storm options.
func (t Trace) Options() Options {
	sched := t.Schedule
	if sched == nil {
		sched = []string{}
	}
	return Options{Seed: t.Seed, FaultEvery: t.FaultEvery, Schedule: sched}
}

// Encode writes the trace as indented JSON.
func (t Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// DecodeTrace reads a JSON trace.
func DecodeTrace(r io.Reader) (Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return Trace{}, fmt.Errorf("chaos: decode trace: %w", err)
	}
	return t, nil
}

// Replay re-executes a recorded storm: the trace's workload shape
// overrides w's (when set), and the trace's schedule fires verbatim.
func Replay(w Workload, faults []Fault, t Trace) Report {
	if t.Actors > 0 {
		w.Actors = t.Actors
	}
	if t.OpsPerActor > 0 {
		w.OpsPerActor = t.OpsPerActor
	}
	return Run(w, faults, t.Options())
}

// Builder constructs a fresh system for one storm execution of the given
// trace: the workload, the fault set, and a cleanup to tear the system
// down. The minimizer re-executes the storm many times with shrinking
// workload shapes, and every execution must start from pristine state
// sized to the candidate — final checks that compare counters against
// actors × ops must take the shape from t, not from the original flags.
type Builder func(t Trace) (Workload, []Fault, func())

// MinimizeStats describes a minimization run.
type MinimizeStats struct {
	// Attempts is the number of storm executions the minimizer spent.
	Attempts int
	// Reproduced reports whether the original trace failed when
	// re-executed; when false the returned trace is the input, untouched
	// (a storm that no longer reproduces cannot be shrunk).
	Reproduced bool
}

// Minimize shrinks a failing trace to a smaller one that still fails:
// first it drops faults from the schedule one at a time (greedy, from
// the back, with an empty-schedule fast path), then it halves the
// per-actor operation count, then the actor count. Every candidate runs
// against a fresh system from build, and is kept only when it fails k
// times out of k: storms over a scaled-time network are not perfectly
// deterministic, and a candidate that fails only when the network happens
// to duplicate a message must not displace a robust reproducer. The
// result is the smallest reliably-failing trace found.
func Minimize(build Builder, t Trace) (Trace, MinimizeStats) {
	stats := MinimizeStats{}
	runOnce := func(cand Trace) bool {
		stats.Attempts++
		w, faults, done := build(cand)
		if done != nil {
			defer done()
		}
		return Replay(w, faults, cand).Failed()
	}
	fails := func(cand Trace) bool {
		const k = 3
		for i := 0; i < k; i++ {
			if !runOnce(cand) {
				return false
			}
		}
		return true
	}
	if !runOnce(t) {
		return t, stats
	}
	stats.Reproduced = true
	best := t
	if best.Schedule == nil {
		best.Schedule = []string{}
	}

	// Fast path: does it fail with no faults at all? Then the defect is
	// in the workload (or the system), not the fault schedule.
	if len(best.Schedule) > 0 {
		cand := best
		cand.Schedule = []string{}
		if fails(cand) {
			best = cand
		}
	}
	// Greedy single-fault drops, from the back (later faults are the
	// likeliest to be past the point of no return).
	for i := len(best.Schedule) - 1; i >= 0; i-- {
		cand := best
		cand.Schedule = append(append([]string{}, best.Schedule[:i]...), best.Schedule[i+1:]...)
		if fails(cand) {
			best = cand
		}
	}
	// Shrink the workload: halve ops, then actors, while it still fails.
	for best.OpsPerActor > 1 {
		cand := best
		cand.OpsPerActor = best.OpsPerActor / 2
		if !fails(cand) {
			break
		}
		best = cand
	}
	for best.Actors > 1 {
		cand := best
		cand.Actors = best.Actors / 2
		if !fails(cand) {
			break
		}
		best = cand
	}
	return best, stats
}
