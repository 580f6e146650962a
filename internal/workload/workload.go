// Package workload reproduces the paper's experimental configuration
// (§5.1, Fig. 13) as a reusable system: one end client, MSP1 and MSP2
// hosted on separate simulated machines with dedicated log disks, and the
// two service methods
//
//	ServiceMethod1: read+write SV0; call ServiceMethod2 m times;
//	                read+write SV1; modify 512 B of 8 KB session state
//	ServiceMethod2: read+write SV2; read+write SV3; modify session state
//
// with 100 B request parameters and return values and 128 B shared
// variables. The system can be built in any of the five configurations
// the paper compares (§5.2) and can inject the paper's forced crash: MSP2
// kills itself when MSP1 receives the reply from ServiceMethod2 (§5.4).
package workload

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
)

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

// Params configures a System. NewParams supplies the paper's defaults.
type Params struct {
	Mode      Mode
	TimeScale float64
	// Calls is m: the number of calls to ServiceMethod2 inside
	// ServiceMethod1 (1 in the base experiment, swept in Fig. 14).
	Calls int
	// SessionCkptThreshold is the session checkpointing threshold in log
	// bytes (1 MB default; 0 disables — the NoCp configuration).
	SessionCkptThreshold int64
	// SVCkptEvery is the shared-variable checkpoint threshold in writes.
	SVCkptEvery int
	// BatchFlushTimeout enables batch flushing with this model timeout.
	BatchFlushTimeout time.Duration
	// CrashEvery injects one MSP2 crash per this many end-client requests
	// (0 = none). The crash fires while MSP1 holds ServiceMethod2's
	// reply, exactly as in §5.4, making SE1 an orphan under LoOptimistic.
	CrashEvery int
	// Sizes (paper defaults: 100 B, 8 KB, 512 B, 128 B).
	RequestSize      int
	SessionStateSize int
	SessionWriteSize int
	SharedSize       int
	// Workers is each MSP's thread-pool size.
	Workers int
	// Latencies: client↔MSP1 round trip 3.9 ms, MSP1↔MSP2 3.596 ms.
	ClientRTT time.Duration
	MSPRTT    time.Duration
	// Tap / ClientTap, when non-nil, attach the correctness oracle's
	// observation taps to both MSPs and to the end client (see
	// internal/oracle). Nil (the default) records nothing and costs one
	// nil check per tap site.
	Tap       core.Tap
	ClientTap core.ClientTap
}

// NewParams returns the paper's experimental parameters at the given
// time scale.
func NewParams(mode Mode, timeScale float64) Params {
	return Params{
		Mode:                 mode,
		TimeScale:            timeScale,
		Calls:                1,
		SessionCkptThreshold: 1 << 20,
		SVCkptEvery:          64,
		RequestSize:          100,
		SessionStateSize:     8 << 10,
		SessionWriteSize:     512,
		SharedSize:           128,
		Workers:              32,
		ClientRTT:            3900 * time.Microsecond,
		MSPRTT:               3596 * time.Microsecond,
	}
}

// System is a running instance of the experimental configuration.
type System struct {
	P      Params
	Net    *simnet.Network
	Client *core.Client

	disk1, disk2 *simdisk.Disk
	dom1, dom2   *core.Domain
	msp1, msp2   *chaos.MSP

	stateServer *baselines.StateServer
	stateCli1   *baselines.StateClient
	stateCli2   *baselines.StateClient

	requests   atomic.Int64
	crashArmed atomic.Bool
	crashWG    sync.WaitGroup
	crashErr   atomic.Pointer[error] // the first failed restart of MSP2
}

// New builds and starts the system.
func New(p Params) (*System, error) {
	if p.Calls <= 0 {
		p.Calls = 1
	}
	s := &System{P: p}
	s.Net = simnet.New(simnet.Config{OneWay: p.MSPRTT / 2, TimeScale: p.TimeScale})
	s.Net.SetLinkLatency("client", "msp1", p.ClientRTT/2)
	s.Net.SetLinkLatency("msp1", "msp2", p.MSPRTT/2)
	s.disk1 = simdisk.NewDisk(simdisk.DefaultModel(p.TimeScale))
	s.disk2 = simdisk.NewDisk(simdisk.DefaultModel(p.TimeScale))

	switch p.Mode {
	case LoOptimistic:
		s.dom1 = core.NewDomain("dom", p.MSPRTT/2, p.TimeScale)
		s.dom2 = s.dom1
	default:
		s.dom1 = core.NewDomain("dom-msp1", p.MSPRTT/2, p.TimeScale)
		s.dom2 = core.NewDomain("dom-msp2", p.MSPRTT/2, p.TimeScale)
	}

	def1 := s.def1()
	def2 := s.def2()
	switch p.Mode {
	case Psession:
		db1, err := sdb.Open(simdisk.NewDisk(simdisk.DefaultModel(p.TimeScale)), "db1", sdb.Options{})
		if err != nil {
			return nil, err
		}
		db2, err := sdb.Open(simdisk.NewDisk(simdisk.DefaultModel(p.TimeScale)), "db2", sdb.Options{})
		if err != nil {
			return nil, err
		}
		def1 = baselines.WrapPsession(def1, db1)
		def2 = baselines.WrapPsession(def2, db2)
	case StateServer:
		s.stateServer = baselines.NewStateServer("stateserver", s.Net)
		s.stateCli1 = baselines.NewStateClient("msp1-sscli", "stateserver", s.Net, p.TimeScale)
		s.stateCli2 = baselines.NewStateClient("msp2-sscli", "stateserver", s.Net, p.TimeScale)
		def1 = baselines.WrapStateServer(def1, s.stateCli1)
		def2 = baselines.WrapStateServer(def2, s.stateCli2)
	}

	logging := p.Mode == LoOptimistic || p.Mode == Pessimistic
	mkCfg := func(id string, dom *core.Domain, disk *simdisk.Disk, def core.Definition) core.Config {
		cfg := core.NewConfig(id, dom, disk, s.Net, def)
		cfg.Logging = logging
		cfg.SessionCkptThreshold = p.SessionCkptThreshold
		if p.SVCkptEvery > 0 {
			cfg.SVCkptEvery = p.SVCkptEvery
		}
		cfg.BatchFlushTimeout = p.BatchFlushTimeout
		cfg.Workers = p.Workers
		cfg.TimeScale = p.TimeScale
		cfg.Tap = p.Tap
		return cfg
	}
	var err error
	if s.msp2, err = chaos.StartMSP(mkCfg("msp2", s.dom2, s.disk2, def2)); err != nil {
		return nil, err
	}
	if s.msp1, err = chaos.StartMSP(mkCfg("msp1", s.dom1, s.disk1, def1)); err != nil {
		return nil, err
	}
	s.Client = core.NewClient("client", s.Net, rpc.DefaultCallOptions(p.TimeScale))
	if p.ClientTap != nil {
		s.Client.SetTap(p.ClientTap)
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
// value of the configured shared size — the "read and write SVx" step.
func (s *System) bumpShared(ctx *core.Ctx, name string) error {
	_, err := ctx.UpdateShared(name, func(old []byte) []byte { return pad(chaos.AsU64(old)+1, s.P.SharedSize) })
	return err
}

// touchSessionState modifies SessionWriteSize bytes of the 8 KB session
// state deterministically.
func (s *System) touchSessionState(ctx *core.Ctx) uint64 {
	state := ctx.GetVar("state")
	if len(state) != s.P.SessionStateSize {
		state = make([]byte, s.P.SessionStateSize)
	}
	n := chaos.AsU64(chaos.BumpSession(ctx))
	off := int((n * uint64(s.P.SessionWriteSize))) % (s.P.SessionStateSize - s.P.SessionWriteSize)
	for i := 0; i < s.P.SessionWriteSize; i++ {
		state[off+i] = byte(n)
	}
	ctx.SetVar("state", state)
	return n
}

// def1 builds MSP1's definition: ServiceMethod1 per Fig. 13.
func (s *System) def1() core.Definition {
	return core.Definition{
		Methods: map[string]core.Handler{
			"method1": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				if err := s.bumpShared(ctx, "sv0"); err != nil {
					return nil, err
				}
				for i := 0; i < s.P.Calls; i++ {
					if _, err := ctx.Call("msp2", "method2", pad(uint64(i), s.P.RequestSize)); err != nil {
						return nil, err
					}
				}
				// §5.4 crash injection point: MSP1 has ServiceMethod2's
				// reply; MSP2 now kills itself, losing its buffered log
				// records — the distributed log flush before reply1 will
				// fail and SE1 becomes an orphan.
				if s.crashArmed.CompareAndSwap(true, false) {
					s.crashWG.Add(1)
					go s.crashAndRestartMSP2()
				}
				if err := s.bumpShared(ctx, "sv1"); err != nil {
					return nil, err
				}
				n := s.touchSessionState(ctx)
				return pad(n, s.P.RequestSize), nil
			},
		},
		Shared: []core.SharedDef{
			{Name: "sv0", Initial: pad(0, s.P.SharedSize)},
			{Name: "sv1", Initial: pad(0, s.P.SharedSize)},
		},
	}
}

// def2 builds MSP2's definition: ServiceMethod2 per Fig. 13.
func (s *System) def2() core.Definition {
	return core.Definition{
		Methods: map[string]core.Handler{
			"method2": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				if err := s.bumpShared(ctx, "sv2"); err != nil {
					return nil, err
				}
				if err := s.bumpShared(ctx, "sv3"); err != nil {
					return nil, err
				}
				n := s.touchSessionState(ctx)
				return pad(n, s.P.RequestSize), nil
			},
		},
		Shared: []core.SharedDef{
			{Name: "sv2", Initial: pad(0, s.P.SharedSize)},
			{Name: "sv3", Initial: pad(0, s.P.SharedSize)},
		},
	}
}

// crashAndRestartMSP2 kills MSP2 (losing its volatile state and buffered
// log records) and restarts it, running full crash recovery. A restart
// that fails is reported by the next Do.
func (s *System) crashAndRestartMSP2() {
	defer s.crashWG.Done()
	if err := s.msp2.Restart(); err != nil {
		s.crashErr.CompareAndSwap(nil, &err)
	}
}

// NewSession opens a new end-client session with MSP1.
func (s *System) NewSession() *core.ClientSession {
	return s.Client.Session("msp1")
}

// Do issues one end-client request on the session and returns its
// measured wall-clock latency. Crash injection is armed here so the
// crash fires during this request's processing.
func (s *System) Do(cs *core.ClientSession) (time.Duration, error) {
	if err := s.crashErr.Load(); err != nil {
		return 0, fmt.Errorf("workload: restarting msp2: %w", *err)
	}
	n := s.requests.Add(1)
	if s.P.CrashEvery > 0 && n%int64(s.P.CrashEvery) == 0 {
		s.crashArmed.Store(true)
	}
	start := time.Now() //mspr:wallclock experiment latencies are measured in real time and rescaled to model time
	_, err := cs.Call("method1", pad(uint64(n), s.P.RequestSize))
	return time.Since(start), err //mspr:wallclock experiment latencies are measured in real time
}

// Crashes returns the number of injected crashes completed.
func (s *System) Crashes() int64 { return int64(s.msp2.Restarts.Count()) }

// Disks returns the two MSP log disks for I/O statistics.
func (s *System) Disks() (*simdisk.Disk, *simdisk.Disk) { return s.disk1, s.disk2 }

// Close shuts the system down.
func (s *System) Close() {
	s.crashWG.Wait()
	s.msp1.Crash()
	s.msp2.Crash()
	s.Client.Close()
	if s.stateServer != nil {
		s.stateServer.Close()
	}
	if s.stateCli1 != nil {
		s.stateCli1.Close()
	}
	if s.stateCli2 != nil {
		s.stateCli2.Close()
	}
}
