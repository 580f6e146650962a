package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mspr/internal/core"
	"mspr/internal/failpoint"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/wal"
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

// testSystem is a single recoverable MSP with a per-session counter and a
// shared grand total.
type testSystem struct {
	net    *simnet.Network
	cfg    core.Config
	mu     sync.Mutex
	srv    *core.Server
	client *core.Client
}

func newTestSystem(t *testing.T) *testSystem {
	return newTestSystemSeeded(t, 7, rpc.DefaultCallOptions(0))
}

// newTestSystemSeeded builds the system with a seeded failpoint registry
// attached (no points armed: inert until a fault arms one) and the given
// client call options.
func newTestSystemSeeded(t *testing.T, seed int64, copts rpc.CallOptions) *testSystem {
	ts := &testSystem{net: simnet.New(simnet.Config{TimeScale: 0})}
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
	dom := core.NewDomain("chaos", 0, 0)
	ts.cfg = core.NewConfig("sut", dom, simdisk.NewDisk(simdisk.DefaultModel(0)), ts.net, def)
	ts.cfg.SessionCkptThreshold = 16 << 10
	ts.cfg.Failpoints = failpoint.New(seed)
	srv, err := core.Start(ts.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts.srv = srv
	ts.client = core.NewClient("chaos-client", ts.net, copts)
	return ts
}

func (ts *testSystem) restart() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.srv.Crash()
	srv, err := core.Start(ts.cfg)
	if err != nil {
		return err
	}
	ts.srv = srv
	return nil
}

func (ts *testSystem) workload(actors, ops int) Workload {
	return Workload{
		Actors:      actors,
		OpsPerActor: ops,
		NewActor: func(i int) (func(int) error, func()) {
			sess := ts.client.Session("sut")
			return func(n int) error {
				out, err := sess.Call("bump", nil)
				if err != nil {
					return err
				}
				if asU64(out) != uint64(n) {
					return fmt.Errorf("counter %d, want %d (exactly-once violated)", asU64(out), n)
				}
				return nil
			}, nil
		},
		FinalCheck: func() error {
			sess := ts.client.Session("sut")
			out, err := sess.Call("total", nil)
			if err != nil {
				return err
			}
			want := uint64(actors * ops)
			if asU64(out) != want {
				return fmt.Errorf("shared total %d, want %d", asU64(out), want)
			}
			return nil
		},
	}
}

func TestStormWithoutFaultsPasses(t *testing.T) {
	ts := newTestSystem(t)
	defer ts.srv.Crash()
	defer ts.client.Close()
	rep := Run(ts.workload(4, 10), nil, Options{})
	if rep.Failed() {
		t.Fatalf("clean storm failed: %v", rep.Errors)
	}
	if rep.Ops != 40 {
		t.Fatalf("ops = %d, want 40", rep.Ops)
	}
}

func TestStormWithCrashRestartsPasses(t *testing.T) {
	ts := newTestSystem(t)
	defer func() { ts.mu.Lock(); ts.srv.Crash(); ts.mu.Unlock() }()
	defer ts.client.Close()
	var faultMu sync.Mutex
	faults := []Fault{RestartFault("crash-sut", &faultMu, ts.restart)}
	rep := Run(ts.workload(4, 20), faults, Options{Seed: 1, FaultEvery: 15})
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
	ts := newTestSystem(t)
	defer func() { ts.mu.Lock(); ts.srv.Crash(); ts.mu.Unlock() }()
	defer ts.client.Close()
	var faultMu sync.Mutex
	faults := []Fault{RestartFault("crash-sut", &faultMu, ts.restart)}
	rep := Run(ts.workload(2, 30), faults, Options{Seed: 2, FaultEvery: 5, MaxFaults: 2})
	if rep.Failed() {
		t.Fatalf("storm failed: %v", rep.Errors)
	}
	if got := rep.FaultsFired["crash-sut"]; got != 2 {
		t.Fatalf("fired %d faults, want exactly 2", got)
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
			ts := newTestSystem(t)
			defer func() { ts.mu.Lock(); ts.srv.Crash(); ts.mu.Unlock() }()
			defer ts.client.Close()
			var faultMu sync.Mutex
			faults := []Fault{RestartFault("crash-sut", &faultMu, ts.restart)}
			rep := Run(ts.workload(3, 15), faults, Options{Seed: seed, FaultEvery: 10})
			if rep.Failed() {
				t.Fatalf("%s\n%v", rep, rep.Errors)
			}
		})
	}
}

// crashSurfaceFaults is the full injected crash surface for the test
// system: torn WAL writes, a torn anchor, a flush crash, and crashes
// planted at the recovery machinery's own crash points (including
// mid-replay, which kills the incarnation *after* Start returned).
func crashSurfaceFaults(ts *testSystem, mu *sync.Mutex) ([]Fault, []string) {
	reg := ts.cfg.Failpoints
	points := []struct{ name, point string }{
		{"torn-flush", simdisk.FPWriteTorn + ":sut.log"},
		{"torn-anchor", wal.FPAnchorCrash},
		{"flush-crash", wal.FPFlushCrash},
		{"crash-before-scan", core.FPRecoveryBeforeScan},
		{"crash-mid-scan", core.FPRecoveryMidScan},
		{"crash-before-broadcast", core.FPRecoveryBeforeBroadcast},
		{"crash-mid-replay", core.FPReplayMidSession},
		{"crash-ckpt-anchor", core.FPCkptBeforeAnchor},
	}
	faults := []Fault{RestartFault("crash", mu, ts.restart)}
	names := make([]string, 0, len(points))
	for _, p := range points {
		faults = append(faults, CrashPointFault(p.name, mu, reg, p.point, ts.restart))
		names = append(names, p.point)
	}
	return faults, names
}

// TestStormCrashSurface is the headline robustness storm: a seeded
// schedule of torn writes, anchor corruption and crashes injected into
// recovery itself, with exactly-once session counters and shared-state
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
			ts := newTestSystemSeeded(t, seed, rpc.BackoffCallOptions(0, seed))
			defer func() { ts.mu.Lock(); ts.srv.Crash(); ts.mu.Unlock() }()
			defer ts.client.Close()
			var faultMu sync.Mutex
			faults, points := crashSurfaceFaults(ts, &faultMu)
			rep := Run(ts.workload(4, 25), faults, Options{Seed: seed, FaultEvery: 12})
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
			for _, p := range points {
				hits += ts.cfg.Failpoints.Hits(p)
			}
			if hits == 0 {
				t.Fatal("no failpoint was ever consumed")
			}
		})
	}
}
