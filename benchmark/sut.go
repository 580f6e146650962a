package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"mspr/internal/core"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
)

// The system under test is pinned here, not taken from internal/workload
// or from the engine's defaults, so that a later change can move a
// number only by changing the engine. The values are the paper's §5.1 /
// Fig. 13 configuration.
const (
	paperTimeScale = 0.02

	requestSize      = 100     // bytes of every argument and return value
	sessionStateSize = 8 << 10 // bytes of session state ...
	sessionWriteSize = 512     // ... of which one request rewrites this many
	sharedSize       = 128     // bytes of a shared variable

	clientRTT = 3900 * time.Microsecond // end client ↔ MSP1
	mspRTT    = 3596 * time.Microsecond // MSP1 ↔ MSP2

	workers              = 32
	sessionCkptThreshold = 1 << 20
	svCkptEvery          = 64
	mspCkptEvery         = 4 << 20
	forceCkptAfter       = 3

	recoverWork = 5 * time.Millisecond // model CPU of one recover_4k request
)

// diskModel is the paper's server disk (Fig. 13).
func diskModel(scale float64) simdisk.Model {
	return simdisk.Model{
		RPM:             7200,
		SectorsPerTrack: 63,
		TrackSeekWrite:  1200 * time.Microsecond,
		TrackSeekRead:   1000 * time.Microsecond,
		AvgSeekWrite:    10500 * time.Microsecond,
		AvgSeekRead:     9500 * time.Microsecond,
		OSSeekFraction:  1.0 / 3.0,
		TimeScale:       scale,
	}
}

// callOptions is the end client's resend policy: the paper's fixed
// 100 ms busy backoff, no budget, no breaker, no deadline.
func callOptions(scale float64) rpc.CallOptions {
	return rpc.CallOptions{
		ResendAfter: 500 * time.Millisecond,
		BusyBackoff: 100 * time.Millisecond,
		TimeScale:   scale,
	}
}

// mspConfig sets every tunable of an MSP explicitly. It starts from
// core.NewConfig only so that a field added later keeps its default.
func mspConfig(id string, dom *core.Domain, disk *simdisk.Disk, net *simnet.Network, def core.Definition, scale float64, logging bool, tap core.Tap) core.Config {
	cfg := core.NewConfig(id, dom, disk, net, def)
	cfg.Workers = workers
	cfg.Logging = logging
	cfg.SessionCkptThreshold = sessionCkptThreshold
	cfg.SVCkptEvery = svCkptEvery
	cfg.MSPCkptEvery = mspCkptEvery
	cfg.ForceCkptAfter = forceCkptAfter
	cfg.BatchFlushTimeout = 0 // no batch flush
	cfg.WalSegmentSize = 4 << 20
	cfg.TimeScale = scale
	cfg.FlushDeadline = 2 * time.Second
	cfg.CtlRetransmit = 20 * time.Millisecond
	cfg.BroadcastDeadline = 500 * time.Millisecond
	cfg.PeerProbeEvery = 100 * time.Millisecond
	cfg.RequestQueueDepth = 4096
	cfg.PriorityQueueDepth = 256
	cfg.Tap = tap
	return cfg
}

// sutKind selects the shape of the system under test.
type sutKind int

const (
	sutPaperLo    sutKind = iota // two MSPs, one service domain (locally optimistic)
	sutPaperPess                 // two MSPs, a domain each (pessimistic)
	sutPaperNoLog                // two MSPs, no logging
	sutOneMSP                    // the request probe: one MSP, logging on, nothing scaled, the "inc" method
	sutRecover                   // one MSP, logging on, never checkpoints sessions: the "step" method
)

// sut is one built system: the MSPs, their log disks, the network and
// the end client.
type sut struct {
	scale  float64
	method string // the end client's entry method
	tr     *tracer

	net    *simnet.Network
	client *core.Client
	disks  []*simdisk.Disk
	cfgs   []core.Config
	msps   []*core.Server // msps[0] is the front MSP the end client calls
}

// buildSUT builds and starts a system. tap and ctap (nil in every timed
// run) attach an observer; tr (nil when untraced) receives the service
// methods' spans.
func buildSUT(kind sutKind, tap core.Tap, ctap core.ClientTap, tr *tracer) (*sut, error) {
	s := &sut{tr: tr}
	switch kind {
	case sutPaperLo, sutPaperPess, sutPaperNoLog:
		s.scale = paperTimeScale
		s.method = "method1"
		s.net = simnet.New(simnet.Config{OneWay: mspRTT / 2, TimeScale: s.scale})
		s.net.SetLinkLatency("client", "msp1", clientRTT/2)
		s.net.SetLinkLatency("msp1", "msp2", mspRTT/2)
		dom1 := core.NewDomain("dom-msp1", mspRTT/2, s.scale)
		dom2 := dom1
		if kind != sutPaperLo {
			dom2 = core.NewDomain("dom-msp2", mspRTT/2, s.scale)
		}
		logging := kind != sutPaperNoLog
		d1, d2 := simdisk.NewDisk(diskModel(s.scale)), simdisk.NewDisk(diskModel(s.scale))
		s.disks = []*simdisk.Disk{d1, d2}
		s.cfgs = []core.Config{
			mspConfig("msp1", dom1, d1, s.net, s.def1(), s.scale, logging, tap),
			mspConfig("msp2", dom2, d2, s.net, s.def2(), s.scale, logging, tap),
		}
	case sutOneMSP, sutRecover:
		def := core.Definition{Methods: map[string]core.Handler{"inc": s.inc}}
		s.method = "inc"
		if kind == sutRecover {
			s.scale = paperTimeScale
			s.method = "step"
			def = core.Definition{Methods: map[string]core.Handler{"step": s.step}}
		}
		s.net = simnet.New(simnet.Config{TimeScale: s.scale})
		d := simdisk.NewDisk(diskModel(s.scale))
		s.disks = []*simdisk.Disk{d}
		cfg := mspConfig("msp1", core.NewDomain("dom-msp1", 0, s.scale), d, s.net, def, s.scale, true, tap)
		if kind == sutRecover {
			cfg.SessionCkptThreshold = 1 << 40 // never: recovery replays every request
		}
		s.cfgs = []core.Config{cfg}
	default:
		return nil, fmt.Errorf("unknown system kind %d", kind)
	}
	// Back to front, so that a callee is up before its caller.
	s.msps = make([]*core.Server, len(s.cfgs))
	for i := len(s.cfgs) - 1; i >= 0; i-- {
		srv, err := core.Start(s.cfgs[i])
		if err != nil {
			s.close()
			return nil, fmt.Errorf("starting %s: %w", s.cfgs[i].ID, err)
		}
		s.msps[i] = srv
	}
	s.client = core.NewClient("client", s.net, callOptions(s.scale))
	if ctap != nil {
		s.client.SetTap(ctap)
	}
	return s, nil
}

// close stops the system; unflushed log records are dropped.
func (s *sut) close() {
	for _, m := range s.msps {
		if m != nil {
			m.Crash()
		}
	}
	if s.client != nil {
		s.client.Close()
	}
}

// pad returns an n-byte value whose first 8 bytes hold v.
func pad(v uint64, n int) []byte {
	b := make([]byte, n)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func val(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// bumpShared is Fig. 13's "read and write SVx". Only method1 passes a
// tracer: method2's span has no children.
func bumpShared(ctx *core.Ctx, name string, tr *tracer, req uint64) error {
	t0 := tr.at()
	v, err := ctx.ReadShared(name)
	tr.add(req, spReadShared, t0)
	if err != nil {
		return err
	}
	t0 = tr.at()
	err = ctx.WriteShared(name, pad(val(v)+1, sharedSize))
	tr.add(req, spWriteShared, t0)
	return err
}

// touchSessionState rewrites sessionWriteSize bytes of the 8 KB session
// state and returns the session's request count.
func touchSessionState(ctx *core.Ctx) uint64 {
	state := ctx.GetVar("state")
	if len(state) != sessionStateSize {
		state = make([]byte, sessionStateSize)
	}
	n := val(ctx.GetVar("reqs")) + 1
	ctx.SetVar("reqs", pad(n, 8))
	off := int(n*sessionWriteSize) % (sessionStateSize - sessionWriteSize)
	for i := 0; i < sessionWriteSize; i++ {
		state[off+i] = byte(n)
	}
	ctx.SetVar("state", state)
	return n
}

// An argument's first 8 bytes are the request's trace key (see reqKey);
// the rest is payload. method1 hands the key on to method2.

// def1 is MSP1: ServiceMethod1 of Fig. 13 with one call to MSP2.
func (s *sut) def1() core.Definition {
	return core.Definition{
		Methods: map[string]core.Handler{
			"method1": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				tr, req := s.tr, val(arg)
				t0 := tr.at()
				defer func() { tr.add(req, spMSP1Handler, t0) }()
				if err := bumpShared(ctx, "sv0", tr, req); err != nil {
					return nil, err
				}
				t1 := tr.at()
				_, err := ctx.Call("msp2", "method2", pad(req, requestSize))
				tr.add(req, spCtxCall, t1)
				if err != nil {
					return nil, err
				}
				if err := bumpShared(ctx, "sv1", tr, req); err != nil {
					return nil, err
				}
				t1 = tr.at()
				n := touchSessionState(ctx)
				tr.add(req, spSetVar, t1)
				return pad(n, requestSize), nil
			},
		},
		Shared: []core.SharedDef{
			{Name: "sv0", Initial: pad(0, sharedSize)},
			{Name: "sv1", Initial: pad(0, sharedSize)},
		},
	}
}

// def2 is MSP2: ServiceMethod2 of Fig. 13.
func (s *sut) def2() core.Definition {
	return core.Definition{
		Methods: map[string]core.Handler{
			"method2": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				tr, req := s.tr, val(arg)
				t0 := tr.at()
				defer func() { tr.add(req, spMSP2Handler, t0) }()
				if err := bumpShared(ctx, "sv2", nil, 0); err != nil {
					return nil, err
				}
				if err := bumpShared(ctx, "sv3", nil, 0); err != nil {
					return nil, err
				}
				return pad(touchSessionState(ctx), requestSize), nil
			},
		},
		Shared: []core.SharedDef{
			{Name: "sv2", Initial: pad(0, sharedSize)},
			{Name: "sv3", Initial: pad(0, sharedSize)},
		},
	}
}

// count increments the session's 8-byte counter "n" and returns it.
func count(ctx *core.Ctx) []byte {
	b := pad(val(ctx.GetVar("n"))+1, 8)
	ctx.SetVar("n", b)
	return b
}

// inc is the request probe's method: one session variable and nothing
// else.
func (s *sut) inc(ctx *core.Ctx, arg []byte) ([]byte, error) {
	return count(ctx), nil
}

// step is recover_4k's method: model CPU that replay has to repeat,
// then the counter.
func (s *sut) step(ctx *core.Ctx, arg []byte) ([]byte, error) {
	ctx.Work(recoverWork)
	return count(ctx), nil
}
