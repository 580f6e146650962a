package core

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"mspr/internal/failpoint"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
)

// testEnv is a two-MSP service domain plus an end client, mirroring the
// paper's experimental configuration (Fig. 13) at TimeScale 0 for fast
// unit testing.
type testEnv struct {
	t      *testing.T
	net    *simnet.Network
	domain *Domain
	disks  map[string]*simdisk.Disk
	defs   map[string]Definition
	muts   map[string][]func(*Config)
	srvs   map[string]*Server
	client *Client
}

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

// counterDef defines a little service used by most tests:
//
//	inc       — increments the session variable "n" and returns it
//	sharedInc — increments shared variable "total" and returns it
//	both      — inc + sharedInc
//	callThrough(target) in multi-MSP defs — defined separately
func counterDef() Definition {
	return Definition{
		Methods: map[string]Handler{
			"inc": func(ctx *Ctx, arg []byte) ([]byte, error) {
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return u64(n), nil
			},
			"get": func(ctx *Ctx, arg []byte) ([]byte, error) {
				return ctx.GetVar("n"), nil
			},
			"sharedInc": func(ctx *Ctx, arg []byte) ([]byte, error) {
				v, err := ctx.ReadShared("total")
				if err != nil {
					return nil, err
				}
				n := asU64(v) + 1
				if err := ctx.WriteShared("total", u64(n)); err != nil {
					return nil, err
				}
				return u64(n), nil
			},
			"sharedGet": func(ctx *Ctx, arg []byte) ([]byte, error) {
				return ctx.ReadShared("total")
			},
			"fail": func(ctx *Ctx, arg []byte) ([]byte, error) {
				return nil, fmt.Errorf("deliberate failure %q", arg)
			},
		},
		Shared: []SharedDef{{Name: "total", Initial: u64(0)}},
	}
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	return &testEnv{
		t:      t,
		net:    simnet.New(simnet.Config{TimeScale: 0}),
		domain: NewDomain("dom", 0, 0),
		disks:  make(map[string]*simdisk.Disk),
		defs:   make(map[string]Definition),
		muts:   make(map[string][]func(*Config)),
		srvs:   make(map[string]*Server),
	}
}

// cfgFor rebuilds the named MSP's config, reapplying its remembered
// config mutators (so a restart keeps e.g. its failpoint registry).
func (e *testEnv) cfgFor(id string) Config {
	cfg := NewConfig(id, e.domain, e.disks[id], e.net, e.defs[id])
	for _, m := range e.muts[id] {
		m(&cfg)
	}
	return cfg
}

// start launches (or restarts after Crash) the named MSP. Mutators are
// remembered per MSP; a start without mutators reuses the previous ones.
func (e *testEnv) start(id string, def Definition, mut ...func(*Config)) *Server {
	e.t.Helper()
	if _, ok := e.disks[id]; !ok {
		e.disks[id] = simdisk.NewDisk(simdisk.DefaultModel(0))
	}
	e.defs[id] = def
	if len(mut) > 0 {
		e.muts[id] = mut
	}
	s, err := Start(e.cfgFor(id))
	if err != nil {
		e.t.Fatalf("starting %s: %v", id, err)
	}
	e.srvs[id] = s
	return s
}

// restart crashes and restarts the named MSP with its previous definition.
// If an armed failpoint crashes the incarnation during its own recovery,
// restart keeps retrying: recovery must be re-enterable after a nested
// crash.
func (e *testEnv) restart(id string) *Server {
	e.t.Helper()
	e.srvs[id].Crash()
	for tries := 0; ; tries++ {
		s, err := Start(e.cfgFor(id))
		if err == nil {
			e.srvs[id] = s
			return s
		}
		if !failpoint.IsInjected(err) || tries >= 8 {
			e.t.Fatalf("restarting %s: %v", id, err)
		}
	}
}

func (e *testEnv) endClient() *Client {
	if e.client == nil {
		e.client = NewClient("client", e.net, rpc.DefaultCallOptions(0))
	}
	return e.client
}

func (e *testEnv) cleanup() {
	for _, s := range e.srvs {
		s.Crash()
	}
	if e.client != nil {
		e.client.Close()
	}
}

// callBound is how long mustCall waits for a reply. A healthy call in
// these tests returns within milliseconds, even under -race; one still
// out after 30 s is stuck — the client resending to a server that never
// answers, as when session exclusivity breaks — and fails the test by
// name instead of hanging the package until go test's timeout.
const callBound = 30 * time.Second

func mustCall(t *testing.T, cs *ClientSession, method string, arg []byte) []byte {
	t.Helper()
	type reply struct {
		out []byte
		err error
	}
	done := make(chan reply, 1)
	go func() {
		out, err := cs.Call(method, arg)
		done <- reply{out, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("call %s: %v", method, r.err)
		}
		return r.out
	case <-time.After(callBound):
		t.Fatalf("call %s: no reply within %v", method, callBound)
		return nil
	}
}

func TestBasicRequestReply(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 5; want++ {
		got := asU64(mustCall(t, cs, "inc", nil))
		if got != want {
			t.Fatalf("inc #%d returned %d", want, got)
		}
	}
}

func TestAppErrorsAreReplies(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	_, err := cs.Call("fail", []byte("x"))
	if err == nil {
		t.Fatal("expected an application error")
	}
	if _, ok := err.(*rpc.AppError); !ok {
		t.Fatalf("expected *rpc.AppError, got %T: %v", err, err)
	}
	// The session keeps working after an application error.
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 1 {
		t.Fatalf("inc after error returned %d", got)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	_, err := cs.Call("nope", nil)
	if err != rpc.ErrRejected {
		t.Fatalf("expected ErrRejected, got %v", err)
	}
}

func TestSharedStateAcrossSessions(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	c := e.endClient()
	a, b := c.Session("msp1"), c.Session("msp1")
	mustCall(t, a, "sharedInc", nil)
	mustCall(t, b, "sharedInc", nil)
	if got := asU64(mustCall(t, a, "sharedGet", nil)); got != 2 {
		t.Fatalf("shared total = %d, want 2", got)
	}
}

func TestCrashRecoveryRestoresSessionState(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	for i := 0; i < 7; i++ {
		mustCall(t, cs, "inc", nil)
	}
	e.restart("msp1")
	// The session survives the crash: the counter continues from 7.
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 8 {
		t.Fatalf("after crash recovery inc returned %d, want 8", got)
	}
}

func TestCrashRecoveryRestoresSharedState(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	for i := 0; i < 5; i++ {
		mustCall(t, cs, "sharedInc", nil)
	}
	e.restart("msp1")
	cs2 := e.endClient().Session("msp1")
	if got := asU64(mustCall(t, cs2, "sharedInc", nil)); got != 6 {
		t.Fatalf("after crash recovery shared total = %d, want 6", got)
	}
}

func TestExactlyOnceAcrossManyCrashes(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	want := uint64(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			want++
			got := asU64(mustCall(t, cs, "inc", nil))
			if got != want {
				t.Fatalf("round %d: inc returned %d, want %d (lost or duplicated execution)", round, got, want)
			}
		}
		e.restart("msp1")
	}
}

// twoMSPDefs wires the paper's Fig. 13 shape: method1 on msp1 reads and
// writes SV0, calls method2 on msp2 m times, reads and writes SV1, and
// updates session state; method2 reads and writes SV2 and SV3 and updates
// its session state.
func twoMSPDefs(m int) (def1, def2 Definition) {
	def1 = Definition{
		Methods: map[string]Handler{
			"method1": func(ctx *Ctx, arg []byte) ([]byte, error) {
				v, err := ctx.ReadShared("sv0")
				if err != nil {
					return nil, err
				}
				if err := ctx.WriteShared("sv0", u64(asU64(v)+1)); err != nil {
					return nil, err
				}
				var last []byte
				for i := 0; i < m; i++ {
					last, err = ctx.Call("msp2", "method2", arg)
					if err != nil {
						return nil, err
					}
				}
				v, err = ctx.ReadShared("sv1")
				if err != nil {
					return nil, err
				}
				if err := ctx.WriteShared("sv1", u64(asU64(v)+1)); err != nil {
					return nil, err
				}
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				_ = last
				return u64(n), nil
			},
		},
		Shared: []SharedDef{{Name: "sv0", Initial: u64(0)}, {Name: "sv1", Initial: u64(0)}},
	}
	def2 = Definition{
		Methods: map[string]Handler{
			"method2": func(ctx *Ctx, arg []byte) ([]byte, error) {
				for _, name := range []string{"sv2", "sv3"} {
					v, err := ctx.ReadShared(name)
					if err != nil {
						return nil, err
					}
					if err := ctx.WriteShared(name, u64(asU64(v)+1)); err != nil {
						return nil, err
					}
				}
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return u64(n), nil
			},
		},
		Shared: []SharedDef{{Name: "sv2", Initial: u64(0)}, {Name: "sv3", Initial: u64(0)}},
	}
	return def1, def2
}

func TestTwoMSPIntraDomainCalls(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	def1, def2 := twoMSPDefs(1)
	e.start("msp1", def1)
	e.start("msp2", def2)
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 10; want++ {
		got := asU64(mustCall(t, cs, "method1", []byte("payload")))
		if got != want {
			t.Fatalf("method1 #%d returned %d", want, got)
		}
	}
}

func TestCalleeCrashOrphanRecovery(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	def1, def2 := twoMSPDefs(1)
	e.start("msp1", def1)
	e.start("msp2", def2)
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 3; want++ {
		if got := asU64(mustCall(t, cs, "method1", nil)); got != want {
			t.Fatalf("warmup #%d returned %d", want, got)
		}
	}
	// Crash the callee: msp1's session depends on msp2's buffered state
	// and must perform orphan recovery, then continue with exactly-once
	// semantics.
	e.restart("msp2")
	for want := uint64(4); want <= 6; want++ {
		if got := asU64(mustCall(t, cs, "method1", nil)); got != want {
			t.Fatalf("post-crash #%d returned %d (exactly-once violated)", want, got)
		}
	}
}

func TestCallerCrashRecovery(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	def1, def2 := twoMSPDefs(1)
	e.start("msp1", def1)
	e.start("msp2", def2)
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 3; want++ {
		mustCall(t, cs, "method1", nil)
	}
	e.restart("msp1")
	for want := uint64(4); want <= 6; want++ {
		if got := asU64(mustCall(t, cs, "method1", nil)); got != want {
			t.Fatalf("post-crash #%d returned %d", want, got)
		}
	}
}

func TestBothCrashRecovery(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	def1, def2 := twoMSPDefs(2)
	e.start("msp1", def1)
	e.start("msp2", def2)
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 3; want++ {
		mustCall(t, cs, "method1", nil)
	}
	e.srvs["msp1"].Crash()
	e.srvs["msp2"].Crash()
	e.start("msp2", e.defs["msp2"])
	e.start("msp1", e.defs["msp1"])
	for want := uint64(4); want <= 6; want++ {
		if got := asU64(mustCall(t, cs, "method1", nil)); got != want {
			t.Fatalf("post-double-crash #%d returned %d", want, got)
		}
	}
}

func TestSessionCheckpointingKeepsWorking(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	// Tiny thresholds so checkpoints fire constantly.
	e.start("msp1", counterDef(), func(c *Config) {
		c.SessionCkptThreshold = 256
		c.SVCkptEvery = 2
		c.MSPCkptEvery = 1024
	})
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 50; want++ {
		if got := asU64(mustCall(t, cs, "inc", nil)); got != want {
			t.Fatalf("inc #%d returned %d", want, got)
		}
		mustCall(t, cs, "sharedInc", nil)
	}
	e.restart("msp1")
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 51 {
		t.Fatalf("after restart inc returned %d, want 51", got)
	}
	cs2 := e.endClient().Session("msp1")
	if got := asU64(mustCall(t, cs2, "sharedGet", nil)); got != 50 {
		t.Fatalf("after restart shared total = %d, want 50", got)
	}
}

func TestLossyNetworkExactlyOnce(t *testing.T) {
	e := newTestEnv(t)
	e.net = simnet.New(simnet.Config{TimeScale: 0, LossRate: 0.2, DupRate: 0.2, Seed: 42})
	defer e.cleanup()
	e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 30; want++ {
		got := asU64(mustCall(t, cs, "inc", nil))
		if got != want {
			t.Fatalf("lossy inc #%d returned %d (exactly-once violated)", want, got)
		}
	}
}

func TestEndSession(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	mustCall(t, cs, "inc", nil)
	if err := cs.End(); err != nil {
		t.Fatalf("end session: %v", err)
	}
	// Ended sessions stay ended across a crash.
	e.restart("msp1")
	cs2 := e.endClient().Session("msp1")
	if got := asU64(mustCall(t, cs2, "inc", nil)); got != 1 {
		t.Fatalf("new session inc returned %d, want 1", got)
	}
}

func TestNoLogModeServes(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef(), func(c *Config) { c.Logging = false })
	cs := e.endClient().Session("msp1")
	for want := uint64(1); want <= 5; want++ {
		if got := asU64(mustCall(t, cs, "inc", nil)); got != want {
			t.Fatalf("nolog inc #%d returned %d", want, got)
		}
	}
}

func TestCleanShutdownRecoversEverything(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	for i := 0; i < 4; i++ {
		mustCall(t, cs, "inc", nil)
		mustCall(t, cs, "sharedInc", nil)
	}
	if err := e.srvs["msp1"].Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	e.start("msp1", e.defs["msp1"])
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 5 {
		t.Fatalf("after shutdown inc returned %d, want 5", got)
	}
}

func TestManyParallelSessionsRecoverAfterCrash(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef())
	c := e.endClient()
	const n = 16
	sessions := make([]*ClientSession, n)
	for i := range sessions {
		sessions[i] = c.Session("msp1")
	}
	done := make(chan error, n)
	for _, cs := range sessions {
		go func(cs *ClientSession) {
			for k := uint64(1); k <= 5; k++ {
				out, err := cs.Call("inc", nil)
				if err != nil {
					done <- err
					return
				}
				if asU64(out) != k {
					done <- fmt.Errorf("session %s: inc returned %d, want %d", cs.ID(), asU64(out), k)
					return
				}
			}
			done <- nil
		}(cs)
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	e.restart("msp1")
	// All sessions recover in parallel and continue.
	for _, cs := range sessions {
		go func(cs *ClientSession) {
			out, err := cs.Call("inc", nil)
			if err != nil {
				done <- err
				return
			}
			if asU64(out) != 6 {
				done <- fmt.Errorf("session %s: post-crash inc returned %d, want 6", cs.ID(), asU64(out))
				return
			}
			done <- nil
		}(cs)
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("timed out waiting for parallel session recovery")
		}
	}
}
