// Package chaos is the harness around the engine — everything that
// builds, crashes, restarts and drives MSPs, written once:
//
//   - Run drives a concurrent workload of actors while a seeded (or
//     replayed) scheduler fires faults, then verifies the survivor
//     invariants (exactly-once execution, shared-state consistency);
//     Trace and Minimize make a failing storm a small replayable file;
//   - Proc is the restartable process every crash-restart goes through;
//   - CounterApp is the application the storms run, CrashSurface the one
//     table of crash points they inject;
//   - RunStorm is the front/back/ledger storm and RunOverload the
//     capacity-then-flood storm behind cmd/mspr-chaos, the in-tree storm
//     tests, and (through Proc) internal/bench's §5.1 system.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mspr/internal/core"
	"mspr/internal/simtime"
)

// Workload describes the load to apply.
type Workload struct {
	// Actors is the number of concurrent actors (each typically owning
	// one session).
	Actors int
	// OpsPerActor is how many operations each actor performs.
	OpsPerActor int
	// NewActor builds actor i: op runs the n-th (1-based) operation and
	// returns an error on any correctness violation; done (optional)
	// releases the actor's resources.
	NewActor func(i int) (op func(n int) error, done func())
	// FinalCheck (optional) verifies global invariants after the storm —
	// e.g. that a shared total equals the sum of all actors' operations.
	FinalCheck func() error
	// Resend is the wall-clock period after which the actors' clients
	// resend an unanswered request (0: not known). It sizes Run's
	// progress watchdog.
	Resend time.Duration
	// Halted (optional) names the processes that are down for good; the
	// watchdog's diagnosis lists them.
	Halted func() []string
}

// A storm stalls when, for stallResends client resend periods and never
// less than minStall, no operation completes and no fault is in flight.
// Run then gives up on it, checking the condition stallTicks times over
// that span.
const (
	stallResends = 200
	minStall     = 2 * time.Second
	stallTicks   = 8
)

// ErrStalled marks the error Run records for a storm that cannot progress.
var ErrStalled = errors.New("no progress")

// Fault is one injectable fault: typically "crash process X and restart
// it". Fire blocks until the fault has been fully applied (the restart
// may still be recovering in the background — that is the point).
type Fault struct {
	Name string
	Fire func() error
}

// Options tunes the storm.
type Options struct {
	// Seed drives fault selection and spacing (deterministic storms).
	Seed int64
	// FaultEvery fires one fault per this many completed operations
	// (0 disables fault injection).
	FaultEvery int
	// MaxFaults bounds the total fault attempts (0 = unbounded).
	MaxFaults int
	// Schedule, when non-nil, switches the scheduler to replay mode: the
	// named faults fire verbatim in order, one per trigger, instead of
	// being drawn from the seeded generator, and injection stops when the
	// schedule is exhausted. A non-nil empty schedule fires nothing —
	// that is how the minimizer tests "does it still fail with no
	// faults". Record a schedule with Run (Report.Schedule) or load one
	// from a Trace.
	Schedule []string
}

// Report summarizes a storm.
type Report struct {
	Ops int64
	// Seed echoes the storm's fault-selection seed, so a report is
	// self-describing for reproduction.
	Seed int64
	// Schedule is the ordered list of fault names the scheduler
	// attempted, exactly as drawn (or replayed). Same seed + same
	// workload → byte-identical schedule; feed it to Options.Schedule or
	// a Trace to re-fire the identical sequence.
	Schedule    []string
	FaultsFired map[string]int
	// FaultErrors counts faults whose Fire returned an error. Each error
	// is also in Errors, but injection continues past it — one sick
	// fault must not silently shut the whole storm's fault plane off.
	FaultErrors int
	// DroppedTriggers counts fault triggers dropped because the workload
	// outran the scheduler's buffer. Nonzero means the storm fired fewer
	// faults than ops/FaultEvery promises — visible, not silent.
	DroppedTriggers int64
	Errors          []error
	Elapsed         time.Duration
}

// Failed reports whether the storm uncovered any violation.
func (r Report) Failed() bool { return len(r.Errors) > 0 }

// String renders a summary.
func (r Report) String() string {
	total := 0
	for _, n := range r.FaultsFired {
		total += n
	}
	status := "PASS"
	if r.Failed() {
		status = fmt.Sprintf("FAIL (%d violations)", len(r.Errors))
	}
	s := fmt.Sprintf("%s: %d ops, %d faults %v in %v (seed %d)",
		status, r.Ops, total, r.FaultsFired, r.Elapsed, r.Seed)
	if r.FaultErrors > 0 {
		s += fmt.Sprintf(", %d fault errors", r.FaultErrors)
	}
	if r.DroppedTriggers > 0 {
		s += fmt.Sprintf(", %d triggers dropped", r.DroppedTriggers)
	}
	s += fmt.Sprintf("\n  schedule: %v", r.Schedule)
	return s
}

// Run executes the workload under fault injection and returns the report.
func Run(w Workload, faults []Fault, o Options) Report {
	start := simtime.Now()
	rep := Report{FaultsFired: make(map[string]int), Seed: o.Seed, Schedule: []string{}}
	if w.Actors <= 0 || w.OpsPerActor <= 0 || w.NewActor == nil {
		rep.Errors = append(rep.Errors, fmt.Errorf("chaos: workload needs actors, ops and a factory"))
		return rep
	}
	var (
		ops      atomic.Int64
		dropped  atomic.Int64
		progress = make([]atomic.Int64, w.Actors) // operations each actor completed
		exited   = make([]atomic.Bool, w.Actors)
		mu       sync.Mutex
		errs     []error
		inFlight bool // a fault is firing (under mu)
		stalled  bool // the watchdog gave up on the storm (under mu)
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		trigger  = make(chan struct{}, 256)
		faultWG  sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if !stalled { // a stalled storm's report is already written
			errs = append(errs, err)
		}
		mu.Unlock()
	}

	// The seeded fault scheduler: each FaultEvery-th completed operation
	// enqueues a trigger; the scheduler fires a seeded-random fault per
	// trigger and drains pending triggers before Run returns, so a storm
	// fires a deterministic min(MaxFaults, ops/FaultEvery) faults no
	// matter how fast the workload outruns it. With Options.Schedule set
	// the seeded draw is replaced by the recorded names, in order.
	replaying := o.Schedule != nil
	byName := make(map[string]Fault, len(faults))
	for _, f := range faults {
		byName[f.Name] = f
	}
	injecting := o.FaultEvery > 0 && (replaying && len(o.Schedule) > 0 || !replaying && len(faults) > 0)
	if injecting {
		faultWG.Add(1)
		go func() {
			defer faultWG.Done()
			rng := rand.New(rand.NewSource(o.Seed + 1))
			fired := 0
			fire := func() bool {
				var f Fault
				if replaying {
					if fired >= len(o.Schedule) {
						return false // schedule exhausted
					}
					name := o.Schedule[fired]
					var ok bool
					if f, ok = byName[name]; !ok {
						// A loud fault error; the rest of the schedule
						// still replays.
						f = Fault{Name: name, Fire: func() error { return errors.New("the replay schedule names a fault the system does not provide") }}
					}
				} else {
					f = faults[rng.Intn(len(faults))]
				}
				mu.Lock()
				if stalled {
					mu.Unlock()
					return false
				}
				inFlight = true
				rep.Schedule = append(rep.Schedule, f.Name)
				mu.Unlock()
				fired++
				err := f.Fire()
				mu.Lock()
				inFlight = false
				if err != nil {
					// Record the error and keep injecting: one sick fault
					// must not silently disable the rest of the storm's
					// fault plane (it used to — every later fault was
					// skipped without a trace).
					errs = append(errs, fmt.Errorf("chaos: fault %s: %w", f.Name, err))
					rep.FaultErrors++
				} else {
					rep.FaultsFired[f.Name]++
				}
				mu.Unlock()
				return o.MaxFaults <= 0 || fired < o.MaxFaults
			}
			for {
				select {
				case <-trigger:
					if !fire() {
						return
					}
				case <-stop:
					for { // workload done: drain pending triggers
						select {
						case <-trigger:
							if !fire() {
								return
							}
						default:
							return
						}
					}
				}
			}
		}()
	}

	for i := 0; i < w.Actors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer exited[i].Store(true)
			op, done := w.NewActor(i)
			if done != nil {
				defer done()
			}
			for n := 1; n <= w.OpsPerActor; n++ {
				if err := op(n); err != nil {
					fail(fmt.Errorf("chaos: actor %d op %d: %w", i, n, err))
					return
				}
				progress[i].Store(int64(n))
				if total := ops.Add(1); injecting && total%int64(o.FaultEvery) == 0 {
					select {
					case trigger <- struct{}{}:
					default:
						// Scheduler far behind: drop rather than block the
						// load, but count it so the report shows the storm
						// fired fewer faults than promised.
						dropped.Add(1)
					}
				}
			}
		}(i)
	}
	actorsDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(actorsDone)
	}()

	// The progress watchdog: a storm in which no operation completes and
	// no fault is in flight for the whole stall span cannot progress — a
	// process that will not come back, a session its peer ignores. Run
	// records why and returns instead of hanging; the stuck actors are
	// left to the workload's teardown.
	span := max(minStall, stallResends*w.Resend)
	watch := func() bool {
		last, idle := int64(-1), 0
		for {
			tick := simtime.NewTimer(span / stallTicks)
			select {
			case <-actorsDone:
				tick.Stop()
				return true
			case <-tick.C:
			}
			mu.Lock()
			if n := ops.Load(); n != last || inFlight {
				last, idle = n, 0
			} else {
				idle++
			}
			gaveUp := idle == stallTicks
			stalled = gaveUp
			mu.Unlock()
			if gaveUp {
				return false
			}
		}
	}
	progressed := watch()
	close(stop) // after a stall the scheduler sees stalled and fires nothing more
	faultWG.Wait()
	switch down := w.down(); {
	case !progressed:
		errs = append(errs, fmt.Errorf("chaos: %w for %v with no fault in flight; stalled actors: %s%s; schedule so far: %v",
			ErrStalled, span, stuckActors(progress, exited, w.OpsPerActor), down, rep.Schedule))
	case down != "":
		// The last fault left a process down: the final check would wait
		// for it forever.
		errs = append(errs, fmt.Errorf("chaos: %w after the last fault%s; schedule: %v", ErrStalled, down, rep.Schedule))
	case w.FinalCheck != nil:
		if err := w.FinalCheck(); err != nil {
			fail(fmt.Errorf("chaos: final check: %w", err))
		}
	}
	rep.Ops = ops.Load()
	rep.DroppedTriggers = dropped.Load()
	rep.Errors = errs
	rep.Elapsed = simtime.Since(start)
	return rep
}

// CallBound is the wall-clock bound on one end-client call that no
// watchdog covers: a storm's final check and audit, which run after Run's
// watchdog has stopped, and every call of internal/bench's runs. A healthy
// call returns within model milliseconds; one unanswered after 30 s is
// stuck — its client resending to a server that never answers.
const CallBound = 30 * time.Second

// BoundedCall is cs.Call(method, arg) for the call with sequence number
// seq, failed once CallBound passes without a reply, naming the session
// and sequence number instead of hanging its caller. The stuck call
// itself ends when its client is closed.
func BoundedCall(cs *core.ClientSession, seq int, method string, arg []byte) ([]byte, error) {
	type result struct {
		out []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := cs.Call(method, arg)
		done <- result{out, err}
	}()
	timer := simtime.NewTimer(CallBound)
	defer timer.Stop()
	select {
	case r := <-done:
		if r.err != nil {
			return nil, fmt.Errorf("session %s seq %d: %w", cs.ID(), seq, r.err)
		}
		return r.out, nil
	case <-timer.C:
		return nil, fmt.Errorf("session %s seq %d: %s unanswered after %v", cs.ID(), seq, method, CallBound)
	}
}

// stuckActors lists the actors that have not finished and how far each
// got.
func stuckActors(progress []atomic.Int64, exited []atomic.Bool, ops int) string {
	var stuck []string
	for i := range progress {
		if !exited[i].Load() {
			stuck = append(stuck, fmt.Sprintf("%d (after op %d of %d)", i, progress[i].Load(), ops))
		}
	}
	return strings.Join(stuck, ", ")
}

// down names the processes Halted reports, for a diagnosis.
func (w Workload) down() string {
	if w.Halted == nil {
		return ""
	}
	if h := w.Halted(); len(h) > 0 {
		return "; halted: " + strings.Join(h, ", ")
	}
	return ""
}
