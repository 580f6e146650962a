package workload

import (
	"testing"
	"time"

	"mspr/internal/chaos"
	"mspr/internal/oracle"
)

func runSystem(t *testing.T, p Params, requests int) *System {
	t.Helper()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.NewSession()
	for i := 1; i <= requests; i++ {
		lat, err := s.Do(cs)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		_ = lat
	}
	return s
}

func TestAllModesServeRequests(t *testing.T) {
	for _, mode := range []Mode{LoOptimistic, Pessimistic, NoLog, Psession, StateServer} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			s := runSystem(t, NewParams(mode, 0), 10)
			defer s.Close()
		})
	}
}

func TestSessionCounterMonotonic(t *testing.T) {
	s, err := New(NewParams(LoOptimistic, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs := s.NewSession()
	for i := 1; i <= 20; i++ {
		if _, err := s.Do(cs); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// The 21st request's reply carries the session's request counter.
	lat21Start := time.Now()
	_ = lat21Start
	out, err := cs.Call("method1", pad(0, s.P.RequestSize))
	if err != nil {
		t.Fatal(err)
	}
	if got := chaos.AsU64(out); got != 21 {
		t.Fatalf("session counter = %d, want 21 (exactly-once violated)", got)
	}
}

func TestMultipleCallsPerRequest(t *testing.T) {
	p := NewParams(LoOptimistic, 0)
	p.Calls = 4
	s := runSystem(t, p, 5)
	defer s.Close()
}

func TestCrashInjectionLoOptimisticExactlyOnce(t *testing.T) {
	p := NewParams(LoOptimistic, 0)
	p.CrashEvery = 5
	p.SessionCkptThreshold = 16 << 10
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs := s.NewSession()
	for i := 1; i <= 25; i++ {
		out, err := cs.Call("method1", pad(uint64(i), s.P.RequestSize))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		s.requests.Add(1) // keep Do-equivalent accounting
		if got := chaos.AsU64(out); got != uint64(i) {
			t.Fatalf("request %d returned counter %d (exactly-once violated)", i, got)
		}
		if i%5 == 0 {
			s.crashArmed.Store(true)
		}
	}
	s.crashWG.Wait()
	if s.Crashes() == 0 {
		t.Fatal("no crashes were injected")
	}
}

func TestCrashInjectionPessimisticExactlyOnce(t *testing.T) {
	p := NewParams(Pessimistic, 0)
	p.CrashEvery = 6
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs := s.NewSession()
	for i := 1; i <= 18; i++ {
		lat, err := s.Do(cs)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		_ = lat
	}
	s.crashWG.Wait()
	if s.Crashes() == 0 {
		t.Fatal("no crashes were injected")
	}
	out, err := cs.Call("method1", pad(0, s.P.RequestSize))
	if err != nil {
		t.Fatal(err)
	}
	if got := chaos.AsU64(out); got != 19 {
		t.Fatalf("session counter = %d, want 19", got)
	}
}

func TestSharedStateConsistentAfterCrashes(t *testing.T) {
	p := NewParams(LoOptimistic, 0)
	p.CrashEvery = 7
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs := s.NewSession()
	const n = 21
	for i := 1; i <= n; i++ {
		if _, err := s.Do(cs); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	s.crashWG.Wait()
}

func TestPessimisticUsesMoreFlushesThanLoOptimistic(t *testing.T) {
	lo := runSystem(t, NewParams(LoOptimistic, 0), 20)
	defer lo.Close()
	pe := runSystem(t, NewParams(Pessimistic, 0), 20)
	defer pe.Close()
	d1lo, d2lo := lo.Disks()
	d1pe, d2pe := pe.Disks()
	loWrites := d1lo.Stats().Writes + d2lo.Stats().Writes
	peWrites := d1pe.Stats().Writes + d2pe.Stats().Writes
	if peWrites <= loWrites {
		t.Fatalf("pessimistic flushes (%d) should exceed locally optimistic (%d)", peWrites, loWrites)
	}
	// The paper's count: pessimistic needs 3 flushes per request, locally
	// optimistic 2 (in parallel). Ratio should be roughly 3:2.
	ratio := float64(peWrites) / float64(loWrites)
	if ratio < 1.2 || ratio > 2.0 {
		t.Fatalf("flush ratio %0.2f outside the expected ~1.5 range (lo=%d, pe=%d)", ratio, loWrites, peWrites)
	}
}

func TestNoLogWritesNothing(t *testing.T) {
	s := runSystem(t, NewParams(NoLog, 0), 10)
	defer s.Close()
	d1, d2 := s.Disks()
	if d1.Stats().Writes != 0 || d2.Stats().Writes != 0 {
		t.Fatalf("NoLog wrote to disk: %+v %+v", d1.Stats(), d2.Stats())
	}
}

func TestPsessionSurvivesRestartOfMSP(t *testing.T) {
	// Psession recovers session state from the DB, but provides no
	// exactly-once guarantee — this test only verifies the system keeps
	// serving after requests flow.
	s := runSystem(t, NewParams(Psession, 0), 10)
	defer s.Close()
}

func TestStateServerStoresState(t *testing.T) {
	s := runSystem(t, NewParams(StateServer, 0), 5)
	defer s.Close()
	if s.stateServer.Len() == 0 {
		t.Fatal("state server holds no session state")
	}
}

func TestConcurrentSessions(t *testing.T) {
	p := NewParams(LoOptimistic, 0)
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const sessions = 8
	errc := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func() {
			cs := s.NewSession()
			for j := 0; j < 10; j++ {
				if _, err := s.Do(cs); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < sessions; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentSessionsWithCrashes(t *testing.T) {
	p := NewParams(LoOptimistic, 0)
	p.CrashEvery = 20
	p.SessionCkptThreshold = 32 << 10
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const sessions = 6
	errc := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		go func() {
			cs := s.NewSession()
			for j := 0; j < 15; j++ {
				if _, err := s.Do(cs); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < sessions; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	s.crashWG.Wait()
	if s.Crashes() == 0 {
		t.Fatal("no crashes injected")
	}
}

func TestBatchFlushingServes(t *testing.T) {
	p := NewParams(Pessimistic, 0)
	p.BatchFlushTimeout = 8 * time.Millisecond
	s := runSystem(t, p, 10)
	defer s.Close()
}

// TestOracleCleanUnderCrashes attaches the correctness oracle to the
// paper's experimental system and verifies that a crash-riddled run
// leaves a history all four checkers accept: the recovery
// infrastructure really does hide the injected MSP2 crashes.
func TestOracleCleanUnderCrashes(t *testing.T) {
	rec := oracle.NewRecorder()
	p := NewParams(LoOptimistic, 0)
	p.CrashEvery = 5
	p.SessionCkptThreshold = 16 << 10
	p.Tap = rec
	p.ClientTap = rec
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs := s.NewSession()
	for i := 1; i <= 25; i++ {
		if _, err := s.Do(cs); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	s.crashWG.Wait()
	if s.Crashes() == 0 {
		t.Fatal("no crashes were injected")
	}
	if rec.Len() == 0 {
		t.Fatal("oracle recorded nothing")
	}
	if vs := rec.Check(); len(vs) != 0 {
		t.Fatalf("oracle violations on a correct system:\n%v", vs)
	}
}
