package bench

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mspr/internal/baselines"
	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/rpc"
	"mspr/internal/sdb"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
)

// The paper's experimental system (§5.1, Fig. 13): one end client, MSP1
// and MSP2 on separate simulated machines with dedicated log disks, and
// the two service methods
//
//	ServiceMethod1: read+write SV0; call ServiceMethod2 m times;
//	                read+write SV1; modify 512 B of 8 KB session state
//	ServiceMethod2: read+write SV2; read+write SV3; modify session state
//
// with 100 B request parameters and return values and 128 B shared
// variables. It runs in any of the five configurations the paper compares
// (§5.2) and can inject the paper's forced crash: MSP2 kills itself when
// MSP1 receives the reply from ServiceMethod2 (§5.4).

// Mode selects one of the paper's five system configurations (§5.2).
type Mode int

// The five configurations of Fig. 14.
const (
	// LoOptimistic: both MSPs in one service domain; optimistic logging
	// inside, pessimistic logging to the end client.
	LoOptimistic Mode = iota
	// Pessimistic: each MSP in its own service domain; every message
	// exchange logged pessimistically.
	Pessimistic
	// NoLog: no logging or recovery infrastructure.
	NoLog
	// Psession: session state persisted in a local DBMS (two database
	// transactions per request per MSP).
	Psession
	// StateServer: session state held by a state server on another
	// computer (two extra message round trips per request per MSP).
	StateServer
)

// String names the configuration as the paper does.
func (m Mode) String() string {
	switch m {
	case LoOptimistic:
		return "LoOptimistic"
	case Pessimistic:
		return "Pessimistic"
	case NoLog:
		return "NoLog"
	case Psession:
		return "Psession"
	case StateServer:
		return "StateServer"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// The §5.1 sizes and round trips, which no figure varies.
const (
	requestSize      = 100                     // request parameters and return values
	sessionStateSize = 8 << 10                 // session state per session
	sessionWriteSize = 512                     // session state each request modifies
	clientRTT        = 3900 * time.Microsecond // end client ↔ MSP1
	mspRTT           = 3596 * time.Microsecond // MSP1 ↔ MSP2
)

// config is what the figures vary about the system.
type config struct {
	mode Mode
	// calls is m, the calls to ServiceMethod2 per ServiceMethod1 (E2).
	calls int
	// threshold is the session-checkpoint threshold in log bytes; 0
	// disables session checkpoints, the NoCp configuration (E3, E5, E6).
	threshold int64
	// crashEvery injects one MSP2 crash per this many end-client requests
	// (0: none). The crash fires while MSP1 holds ServiceMethod2's reply,
	// as in §5.4, which makes SE1 an orphan under LoOptimistic (E4–E6).
	crashEvery int
	// batch is the batch-flush timeout (0: flush at once) (E7).
	batch time.Duration
	// sharedSize is the size of each shared variable (the ablation).
	sharedSize int
	// tap, when non-nil, observes both MSPs and the end client for the
	// correctness oracle.
	tap interface {
		core.Tap
		core.ClientTap
	}
}

// paperConfig returns the paper's parameters for mode: m = 1, a 1 MB
// checkpoint threshold, no crashes, no batching, 128 B shared variables.
func paperConfig(mode Mode) config {
	return config{mode: mode, calls: 1, threshold: 1 << 20, sharedSize: 128}
}

// system is a running instance of the paper's system.
type system struct {
	c            config
	client       *core.Client
	disk1, disk2 *simdisk.Disk
	msp1, msp2   *chaos.MSP
	closers      []func() // the state server and its clients

	requests   atomic.Int64
	crashArmed atomic.Bool
	crashWG    sync.WaitGroup
	crashErr   atomic.Pointer[error] // the first failed restart of MSP2
}

// newSystem builds and starts the system c describes at the given time
// scale.
func newSystem(c config, scale float64) (*system, error) {
	s := &system{c: c}
	net := simnet.New(simnet.Config{OneWay: mspRTT / 2, TimeScale: scale})
	net.SetLinkLatency("client", "msp1", clientRTT/2)
	net.SetLinkLatency("msp1", "msp2", mspRTT/2)
	s.disk1 = simdisk.NewDisk(simdisk.DefaultModel(scale))
	s.disk2 = simdisk.NewDisk(simdisk.DefaultModel(scale))

	dom1 := core.NewDomain("dom", mspRTT/2, scale)
	dom2 := dom1
	if c.mode != LoOptimistic {
		dom1 = core.NewDomain("dom-msp1", mspRTT/2, scale)
		dom2 = core.NewDomain("dom-msp2", mspRTT/2, scale)
	}

	def1, def2 := s.def1(), s.def2()
	switch c.mode {
	case Psession:
		db1, err := sdb.Open(simdisk.NewDisk(simdisk.DefaultModel(scale)), "db1")
		if err != nil {
			return nil, err
		}
		db2, err := sdb.Open(simdisk.NewDisk(simdisk.DefaultModel(scale)), "db2")
		if err != nil {
			return nil, err
		}
		def1, def2 = baselines.WrapPsession(def1, db1), baselines.WrapPsession(def2, db2)
	case StateServer:
		ss := baselines.NewStateServer("stateserver", net)
		cli1 := baselines.NewStateClient("msp1-sscli", "stateserver", net, scale)
		cli2 := baselines.NewStateClient("msp2-sscli", "stateserver", net, scale)
		s.closers = []func(){ss.Close, cli1.Close, cli2.Close}
		def1, def2 = baselines.WrapStateServer(def1, cli1), baselines.WrapStateServer(def2, cli2)
	}

	start := func(id string, dom *core.Domain, disk *simdisk.Disk, def core.Definition) (*chaos.MSP, error) {
		cfg := core.NewConfig(id, dom, disk, net, def)
		cfg.Logging = c.mode == LoOptimistic || c.mode == Pessimistic
		cfg.SessionCkptThreshold = c.threshold
		cfg.BatchFlushTimeout = c.batch
		cfg.Tap = c.tap
		return chaos.StartMSP(cfg)
	}
	var err error
	if s.msp2, err = start("msp2", dom2, s.disk2, def2); err != nil {
		return nil, err
	}
	if s.msp1, err = start("msp1", dom1, s.disk1, def1); err != nil {
		return nil, err
	}
	s.client = core.NewClient("client", net, rpc.DefaultCallOptions(scale))
	if c.tap != nil {
		s.client.SetTap(c.tap)
	}
	return s, nil
}

// pad returns an n-byte value whose first 8 bytes hold v.
func pad(v uint64, n int) []byte {
	b := make([]byte, n)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// bumpShared reads a shared variable and writes back an incremented
// value of the configured size: the "read and write SVx" step.
func (s *system) bumpShared(ctx *core.Ctx, name string) error {
	_, err := ctx.UpdateShared(name, func(old []byte) []byte { return pad(chaos.AsU64(old)+1, s.c.sharedSize) })
	return err
}

// touchSessionState bumps the session's request counter, modifies 512 B
// of the 8 KB session state deterministically, and returns the counter.
func touchSessionState(ctx *core.Ctx) uint64 {
	state := ctx.GetVar("state")
	if len(state) != sessionStateSize {
		state = make([]byte, sessionStateSize)
	}
	n := chaos.AsU64(chaos.BumpSession(ctx))
	off := int(n*sessionWriteSize) % (sessionStateSize - sessionWriteSize)
	for i := 0; i < sessionWriteSize; i++ {
		state[off+i] = byte(n)
	}
	ctx.SetVar("state", state)
	return n
}

// def1 builds MSP1's definition: ServiceMethod1 per Fig. 13.
func (s *system) def1() core.Definition {
	return core.Definition{
		Methods: map[string]core.Handler{
			"method1": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				if err := s.bumpShared(ctx, "sv0"); err != nil {
					return nil, err
				}
				for i := 0; i < s.c.calls; i++ {
					if _, err := ctx.Call("msp2", "method2", pad(uint64(i), requestSize)); err != nil {
						return nil, err
					}
				}
				// §5.4 crash injection point: MSP1 has ServiceMethod2's
				// reply; MSP2 now kills itself, losing its buffered log
				// records, so the distributed log flush before reply1
				// fails and SE1 becomes an orphan.
				if s.crashArmed.CompareAndSwap(true, false) {
					s.crashWG.Add(1)
					go func() {
						defer s.crashWG.Done()
						if err := s.msp2.Restart(); err != nil {
							s.crashErr.CompareAndSwap(nil, &err)
						}
					}()
				}
				if err := s.bumpShared(ctx, "sv1"); err != nil {
					return nil, err
				}
				return pad(touchSessionState(ctx), requestSize), nil
			},
		},
		Shared: []core.SharedDef{
			{Name: "sv0", Initial: pad(0, s.c.sharedSize)},
			{Name: "sv1", Initial: pad(0, s.c.sharedSize)},
		},
	}
}

// def2 builds MSP2's definition: ServiceMethod2 per Fig. 13.
func (s *system) def2() core.Definition {
	return core.Definition{
		Methods: map[string]core.Handler{
			"method2": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				if err := s.bumpShared(ctx, "sv2"); err != nil {
					return nil, err
				}
				if err := s.bumpShared(ctx, "sv3"); err != nil {
					return nil, err
				}
				return pad(touchSessionState(ctx), requestSize), nil
			},
		},
		Shared: []core.SharedDef{
			{Name: "sv2", Initial: pad(0, s.c.sharedSize)},
			{Name: "sv3", Initial: pad(0, s.c.sharedSize)},
		},
	}
}

// do sends the end-client request with sequence number seq on cs and
// returns the reply, which carries MSP1's session counter, and the
// request's wall-clock latency.
// Crash injection is armed here, so the crash fires while this request
// is served. A failed restart of MSP2 is reported by the next do.
func (s *system) do(cs *core.ClientSession, seq int) ([]byte, time.Duration, error) {
	if err := s.crashErr.Load(); err != nil {
		return nil, 0, fmt.Errorf("bench: restarting msp2: %w", *err)
	}
	n := s.requests.Add(1)
	if s.c.crashEvery > 0 && n%int64(s.c.crashEvery) == 0 {
		s.crashArmed.Store(true)
	}
	start := simtime.Now()
	out, err := boundedCall(cs, seq, "method1", pad(uint64(n), requestSize))
	return out, simtime.Since(start), err
}

// crashes waits for the restart the last request may have set off and
// returns the number of injected crashes.
func (s *system) crashes() int64 {
	s.crashWG.Wait()
	return int64(s.msp2.Restarts.Count())
}

// close shuts the system down.
func (s *system) close() {
	s.crashWG.Wait()
	s.msp1.Crash()
	s.msp2.Crash()
	s.client.Close()
	for _, c := range s.closers {
		c()
	}
}
