package bench

import (
	"fmt"
	"testing"
	"time"

	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/oracle"
)

// startSystem builds the system c describes at time scale 0 and closes it
// when the test ends.
func startSystem(t *testing.T, c config) *system {
	t.Helper()
	s, err := newSystem(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

// drive runs sessions concurrent end-client sessions of requests requests
// each and fails the test unless the j-th reply of every session carries
// session counter j: each request ran exactly once, across any crash.
func drive(t *testing.T, s *system, sessions, requests int) {
	t.Helper()
	errc := make(chan error, sessions)
	for range sessions {
		go func() {
			cs := s.client.Session("msp1")
			for j := 1; j <= requests; j++ {
				out, _, err := s.do(cs)
				if got := chaos.AsU64(out); err == nil && got != uint64(j) {
					err = fmt.Errorf("%s: request %d returned session counter %d (exactly-once violated)", cs.ID(), j, got)
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for range sessions {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSystemConfigurations serves requests in every configuration the
// figures build, and under §5.4's crash of MSP2 with both logging
// methods, and checks every reply and the number of crashes.
func TestSystemConfigurations(t *testing.T) {
	type tc struct {
		name               string
		c                  config
		sessions, requests int
	}
	var cases []tc
	for _, mode := range AllModes {
		cases = append(cases, tc{mode.String(), paperConfig(mode), 1, 10})
	}
	with := func(mode Mode, set func(*config)) config {
		c := paperConfig(mode)
		set(&c)
		return c
	}
	cases = append(cases,
		tc{"Calls4", with(LoOptimistic, func(c *config) { c.calls = 4 }), 1, 5},
		tc{"BatchFlushing", with(Pessimistic, func(c *config) { c.batch = 8 * time.Millisecond }), 1, 10},
		tc{"ConcurrentSessions", paperConfig(LoOptimistic), 8, 10},
		tc{"CrashLoOptimistic", with(LoOptimistic, func(c *config) { c.crashEvery = 7 }), 1, 21},
		tc{"CrashLoOptimisticCkpt16K", with(LoOptimistic, func(c *config) { c.crashEvery, c.threshold = 5, 16<<10 }), 1, 25},
		tc{"CrashPessimistic", with(Pessimistic, func(c *config) { c.crashEvery = 6 }), 1, 18},
		tc{"CrashConcurrentSessions", with(LoOptimistic, func(c *config) { c.crashEvery, c.threshold = 20, 32<<10 }), 6, 15},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startSystem(t, tc.c)
			drive(t, s, tc.sessions, tc.requests)
			var want int64
			if tc.c.crashEvery > 0 {
				want = int64(tc.sessions * tc.requests / tc.c.crashEvery)
			}
			if got := s.crashes(); got != want {
				t.Fatalf("%d crashes, want %d", got, want)
			}
		})
	}
}

// TestSessionCounterMonotonic interleaves the requests of two end-client
// sessions: each reply carries its own session's counter, one more than
// the last, whatever the other session did in between.
func TestSessionCounterMonotonic(t *testing.T) {
	s := startSystem(t, paperConfig(LoOptimistic))
	a, b := s.client.Session("msp1"), s.client.Session("msp1")
	for j := 1; j <= 10; j++ {
		for _, cs := range []*core.ClientSession{a, b} {
			out, _, err := s.do(cs)
			if err != nil {
				t.Fatal(err)
			}
			if got := chaos.AsU64(out); got != uint64(j) {
				t.Fatalf("%s: request %d returned session counter %d (exactly-once violated)", cs.ID(), j, got)
			}
		}
	}
}

// TestPsessionSurvivesRestartOfMSP restarts MSP2 between end-client
// sessions under Psession. Psession has no log, so the restarted MSP2
// knows none of the sessions open before the crash and promises nothing
// for them; the sessions that start after the restart must be served.
func TestPsessionSurvivesRestartOfMSP(t *testing.T) {
	s := startSystem(t, paperConfig(Psession))
	drive(t, s, 2, 10)
	if err := s.msp2.Restart(); err != nil {
		t.Fatal(err)
	}
	drive(t, s, 2, 10)
	if got := s.crashes(); got != 1 {
		t.Fatalf("%d crashes, want 1", got)
	}
}

// logDiskWrites serves 20 requests in mode and returns the number of
// writes to both log disks.
func logDiskWrites(t *testing.T, mode Mode) int64 {
	t.Helper()
	s := startSystem(t, paperConfig(mode))
	drive(t, s, 1, 20)
	return s.disk1.Stats().Writes + s.disk2.Stats().Writes
}

// TestNoLogWritesNothing checks that NoLog never writes its log disks.
func TestNoLogWritesNothing(t *testing.T) {
	if w := logDiskWrites(t, NoLog); w != 0 {
		t.Fatalf("NoLog wrote %d times to its log disks", w)
	}
}

// TestPessimisticUsesMoreFlushesThanLoOptimistic checks the flush counts
// of §5.2: pessimistic logging flushes three times a request where
// locally optimistic logging flushes twice, in parallel.
func TestPessimisticUsesMoreFlushesThanLoOptimistic(t *testing.T) {
	lo, pe := logDiskWrites(t, LoOptimistic), logDiskWrites(t, Pessimistic)
	if ratio := float64(pe) / float64(lo); ratio < 1.2 || ratio > 2.0 {
		t.Fatalf("pessimistic/locally optimistic flush ratio %0.2f outside 1.2–2.0 (lo=%d, pe=%d)", ratio, lo, pe)
	}
}

// TestOracleCleanUnderCrashes attaches the correctness oracle to the
// paper's system and checks that a crash-riddled run leaves a history all
// four checkers accept: recovery really does hide the injected crashes.
func TestOracleCleanUnderCrashes(t *testing.T) {
	rec := oracle.NewRecorder()
	c := paperConfig(LoOptimistic)
	c.crashEvery, c.threshold, c.tap = 5, 16<<10, rec
	s := startSystem(t, c)
	drive(t, s, 1, 25)
	if s.crashes() == 0 {
		t.Fatal("no crashes were injected")
	}
	if rec.Len() == 0 {
		t.Fatal("oracle recorded nothing")
	}
	if vs := rec.Check(); len(vs) != 0 {
		t.Fatalf("oracle violations on a correct system:\n%v", vs)
	}
}

// TestRunOneCountsEveryCrash makes the last request arm the crash: runOne
// must count the restart that request set off, which can still be running
// when the request's reply arrives.
func TestRunOneCountsEveryCrash(t *testing.T) {
	for _, mode := range []Mode{LoOptimistic, Pessimistic} {
		c := paperConfig(mode)
		c.crashEvery = 10
		st, err := runOne(Options{Requests: 10, Clients: 1}, c)
		if err != nil {
			t.Fatal(err)
		}
		if st.Crashes != 1 {
			t.Errorf("%v: %d crashes, want 1", mode, st.Crashes)
		}
	}
}
