package oracle_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/failpoint"
	"mspr/internal/oracle"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func asU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// sut is one recoverable MSP under oracle observation, reached over a
// network that duplicates messages — the environment in which broken
// request deduplication becomes visible.
type sut struct {
	net    *simnet.Network
	cfg    core.Config
	mu     sync.Mutex
	srv    *core.Server
	client *core.Client
	rec    *oracle.Recorder
}

// newSUT builds the system. brokenDedup arms core.FPDedupSkip for every
// hit, so a network-duplicated request re-executes instead of being
// absorbed by the receive log.
func newSUT(t *testing.T, seed int64, brokenDedup bool) *sut {
	t.Helper()
	s := &sut{
		net: simnet.New(simnet.Config{TimeScale: 0, DupRate: 0.4, Seed: seed}),
		rec: oracle.NewRecorder(),
	}
	def := core.Definition{
		Methods: map[string]core.Handler{
			"bump": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				_, err := ctx.UpdateShared("total", func(old []byte) []byte { return u64(asU64(old) + 1) })
				return u64(n), err
			},
			"total": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
				return ctx.ReadShared("total")
			},
		},
		Shared: []core.SharedDef{{Name: "total", Initial: u64(0)}},
	}
	dom := core.NewDomain("oracle-e2e", 0, 0)
	s.cfg = core.NewConfig("sut", dom, simdisk.NewDisk(simdisk.DefaultModel(0)), s.net, def)
	s.cfg.SessionCkptThreshold = 16 << 10
	s.cfg.Failpoints = failpoint.New(seed)
	s.cfg.Tap = s.rec
	if brokenDedup {
		s.cfg.Failpoints.Enable(core.FPDedupSkip, failpoint.Times(-1))
	}
	srv, err := core.Start(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.srv = srv
	s.client = core.NewClient("oracle-client", s.net, rpc.DefaultCallOptions(0))
	s.client.SetTap(s.rec)
	return s
}

func (s *sut) restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv.Crash()
	srv, err := core.Start(s.cfg)
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

func (s *sut) close() {
	s.mu.Lock()
	s.srv.Crash()
	s.mu.Unlock()
	s.client.Close()
}

// workload drives bump ops and audits the shared total through the
// oracle: each op declares its increment, and the final check records
// the observed total and folds the checkers' verdict into the storm.
func (s *sut) workload(actors, ops int) chaos.Workload {
	return chaos.Workload{
		Actors:      actors,
		OpsPerActor: ops,
		NewActor: func(i int) (func(int) error, func()) {
			sess := s.client.Session("sut")
			return func(n int) error {
				s.rec.DeclareEffect(sess.ID(), uint64(n), "total", 1)
				_, err := sess.Call("bump", nil)
				return err
			}, nil
		},
		FinalCheck: func() error {
			sess := s.client.Session("sut")
			out, err := sess.Call("total", nil)
			if err != nil {
				return err
			}
			s.rec.FinalState("total", int64(asU64(out)))
			if vs := s.rec.Check(); len(vs) != 0 {
				msgs := make([]string, len(vs))
				for i, v := range vs {
					msgs[i] = v.String()
				}
				return fmt.Errorf("oracle: %d violations:\n%s", len(vs), strings.Join(msgs, "\n"))
			}
			return nil
		},
	}
}

func (s *sut) faults(mu *sync.Mutex) []chaos.Fault {
	return []chaos.Fault{chaos.RestartFault("crash-sut", mu, s.restart)}
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
			s := newSUT(t, 11, false)
			defer s.close()
			var faultMu sync.Mutex
			var faults []chaos.Fault
			o := chaos.Options{Seed: 11}
			if faulty {
				faults = s.faults(&faultMu)
				o.FaultEvery = 15
			}
			rep := chaos.Run(s.workload(4, 20), faults, o)
			if rep.Failed() {
				t.Fatalf("%s\n%v", rep, rep.Errors)
			}
			if s.rec.Len() == 0 {
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
	s := newSUT(t, seed, false)
	defer s.close()
	var faultMu sync.Mutex
	fp := s.cfg.Failpoints
	faults := []chaos.Fault{
		chaos.RestartFault("crash-sut", &faultMu, s.restart),
		chaos.CrashPointFault("crash-before-serve", &faultMu, fp,
			core.FPRecoveryBeforeServe, s.restart),
		chaos.CrashPointFault("crash-lazy-replay", &faultMu, fp,
			core.FPLazyReplay, s.restart),
		chaos.CrashPointFault("crash-mid-sweep", &faultMu, fp,
			core.FPSweepMid, s.restart),
	}
	rep := chaos.Run(s.workload(6, 25), faults, chaos.Options{Seed: seed, FaultEvery: 12})
	if rep.Failed() {
		t.Fatalf("%s\n%v", rep, rep.Errors)
	}
	if s.rec.Len() == 0 {
		t.Fatal("oracle recorded nothing")
	}
}

// TestOracleCatchesBrokenDedup is the end-to-end acceptance test: with
// deduplication deliberately broken, the exactly-once checker must fail
// the storm, and Minimize must shrink the failure to a replayable JSON
// trace with at most 3 faults that still reproduces on a fresh system.
func TestOracleCatchesBrokenDedup(t *testing.T) {
	const seed = 3
	s := newSUT(t, seed, true)
	var faultMu sync.Mutex
	rep := chaos.Run(s.workload(4, 20), s.faults(&faultMu), chaos.Options{
		Seed: seed, FaultEvery: 15, MaxFaults: 3,
	})
	s.close()
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
	build := func(tr chaos.Trace) (chaos.Workload, []chaos.Fault, func()) {
		sys := newSUT(t, seed, true)
		return sys.workload(tr.Actors, tr.OpsPerActor), sys.faults(&faultMu), sys.close
	}
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
