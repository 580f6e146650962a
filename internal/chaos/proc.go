package chaos

import (
	"sync"
	"time"

	"mspr/internal/core"
	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
	"mspr/internal/txmsp"
)

// Proc is a restartable process: how to start an incarnation, and the
// incarnation currently up. Every harness that crashes and restarts an
// MSP — the storms, internal/bench's §5.4 crash and recovery benches —
// goes through Restart, so a failed restart means one thing everywhere:
// the error is returned and the dead incarnation is kept, whose Crash is
// idempotent, so the caller can simply Restart again.
type Proc[S process] struct {
	// Name is the process identifier; it names the process's faults.
	Name string
	// FP is the process's failpoint registry (nil: injection off).
	FP *failpoint.Registry
	// Restarts holds one crash-to-ready sample per successful
	// Restart; TTFR one time-to-first-reply sample per incarnation that
	// crash-recovered and went on to reply (MSPs only), harvested when the
	// incarnation is next crashed so no restart ever waits for a reply.
	Restarts, TTFR *metrics.Series

	start func() (S, error)
	ttfr  func(S) time.Duration // nil: the process has no recovery latency to report
	mu    sync.Mutex            // serializes restarts; guards cur
	cur   S
}

// process is what a Proc restarts: an incarnation that can be crashed
// and that reports whether it has stopped.
type process interface {
	Crash()
	Halted() bool
}

// MSP is a restartable core server; Store a restartable transactional
// resource manager.
type (
	MSP   = Proc[*core.Server]
	Store = Proc[*txmsp.Server]
)

func startProc[S process](name string, fp *failpoint.Registry, start func() (S, error), ttfr func(S) time.Duration) (*Proc[S], error) {
	cur, err := start()
	if err != nil {
		return nil, err
	}
	return &Proc[S]{Name: name, FP: fp, Restarts: new(metrics.Series), TTFR: new(metrics.Series),
		start: start, ttfr: ttfr, cur: cur}, nil
}

// StartMSP starts the MSP cfg describes; every restart reuses cfg.
func StartMSP(cfg core.Config) (*MSP, error) {
	return startProc(cfg.ID, cfg.Disk.Failpoints(), func() (*core.Server, error) { return core.Start(cfg) },
		(*core.Server).TimeToFirstReply)
}

// StartStore starts the resource manager cfg describes.
func StartStore(cfg txmsp.Config) (*Store, error) {
	return startProc(cfg.ID, cfg.Disk.Failpoints(), func() (*txmsp.Server, error) { return txmsp.Start(cfg) }, nil)
}

// Current returns the incarnation that is up (after a failed Restart: the
// dead one). It waits out a Restart in progress.
func (p *Proc[S]) Current() S {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

// Halted reports whether the incarnation that should be up has stopped:
// a fail-stop halt or a crash point killed it, or its restart failed and
// the dead one was kept. It waits out a Restart in progress.
func (p *Proc[S]) Halted() bool { return p.Current().Halted() }

// Crash kills the current incarnation for good (teardown).
func (p *Proc[S]) Crash() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashLocked()
}

func (p *Proc[S]) crashLocked() {
	if p.ttfr != nil {
		if d := p.ttfr(p.cur); d > 0 {
			p.TTFR.Record(d)
		}
	}
	p.cur.Crash()
}

// Restart crashes the current incarnation and starts the next one, which
// runs crash recovery. When Start dies — an armed crash point killed
// recovery itself — the error is returned and the old pointer kept.
func (p *Proc[S]) Restart() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t0 := simtime.Now()
	p.crashLocked()
	next, err := p.start()
	if err != nil {
		return err
	}
	p.cur = next
	p.Restarts.Record(simtime.Since(t0))
	return nil
}

// RestartFault is the plain crash-and-restart fault.
func (p *Proc[S]) RestartFault(name string) Fault {
	return Fault{Name: name, Fire: p.Restart}
}

// CrashPointFault arms a one-shot failpoint in the process's registry and
// crash-restarts it, so the point fires inside the next incarnation —
// torn writes and flush crashes land in recovery's own checkpoint, and
// the core.FPRecovery*/FPReplay* points crash recovery itself. Fire keeps
// restarting while Start dies at the injected point: the incarnation
// that finally comes up has recovered from a crash *during* recovery.
//
// Points planted in asynchronous work (background session replay, a
// store's next commit) fire only after Start has returned, killing the
// apparently healthy incarnation; Fire therefore waits briefly for the
// armed point to be consumed and restarts once more when it is. A point
// no schedule reaches is disarmed before returning so it cannot leak
// into a later, unrelated fault.
func (p *Proc[S]) CrashPointFault(name, point string) Fault {
	return Fault{Name: name, Fire: func() error {
		p.FP.Enable(point, failpoint.Times(1))
		defer p.FP.Disable(point)
		for tries := 0; ; tries++ {
			before := p.FP.Hits(point)
			if err := p.Restart(); err != nil {
				if failpoint.IsInjected(err) && tries < 16 {
					continue // nested crash during recovery: go again
				}
				return err
			}
			deadline := simtime.Now().Add(time.Second)
			for p.FP.Armed(point) && simtime.Now().Before(deadline) {
				time.Sleep(time.Millisecond) //mspr:wallclock a poll from outside the model: on simtime.Sleep it would keep the driver spinning
			}
			if p.FP.Hits(point) == before || tries >= 16 {
				return nil
			}
			// The fresh incarnation was killed: once more.
		}
	}}
}

// PartitionFault splits the network into the given groups, optionally
// fires during() while the split is in force (typically a Restart, so a
// process recovers while its domain peers are unreachable and its
// recovery broadcast is lost), holds the partition for hold, then heals.
// Addresses not named in any group — end clients, cross-domain
// processes — keep reaching everyone; only the named processes are cut
// off from each other. The network is always healed before Fire returns,
// even when during() fails.
func PartitionFault(name string, net *simnet.Network, groups [][]simnet.Addr, hold time.Duration, during func() error) Fault {
	return Fault{Name: name, Fire: func() error {
		net.Partition(groups...)
		defer net.Heal()
		var err error
		if during != nil {
			err = during()
		}
		simtime.Sleep(hold)
		return err
	}}
}
