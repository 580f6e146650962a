package chaos

import (
	"errors"
	"fmt"
	"time"

	"mspr/internal/core"
	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/oracle"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/txmsp"
	"mspr/internal/wal"
)

// oneWay is the paper's MSP↔MSP one-way network latency (§5.1).
const oneWay = 1798 * time.Microsecond

// StormSpec is everything needed to build one pristine storm system —
// the minimizer rebuilds from it for every candidate execution.
type StormSpec struct {
	// Actors concurrent client sessions perform Ops operations each.
	Actors, Ops int
	// Seed drives the network's loss and duplication and the failpoint
	// registries' draws.
	Seed      int64
	Loss, Dup float64
	// Scale is the time scale; 0 runs every modelled latency at zero.
	Scale float64
	// Batch is the group-commit window in model time (0: flush each
	// record immediately).
	Batch time.Duration
	// SegmentSize, when positive, bounds the disk: tiny log segments
	// force constant rotation, and a checkpoint cadence scaled to the
	// segment size keeps truncation reclaiming them.
	SegmentSize int64
	// SVCkptEvery, when positive, replaces the MSPs' shared-variable
	// checkpoint threshold: at the engine's default of 64 a storm takes a
	// handful of those checkpoints, at 2 it lives on them.
	SVCkptEvery int
	// Failpoints adds the crash surface (CrashSurface) to the fault
	// list; Partitions adds domain splits, alone and around a restart.
	Failpoints, Partitions bool
	// Oracle records the full client/server event history and runs the
	// correctness checkers over it in the final check.
	Oracle bool
	// BreakDedup sabotages request deduplication at the Front MSP, so
	// the oracle can be shown to catch a duplicate execution.
	BreakDedup bool
	// Solo replaces the three processes by one MSP, "sut", playing Front
	// and Back at once: the small system the in-tree storms run.
	Solo bool
}

// Storm is one built storm system: "front" calls "back" inside one
// service domain (optimistic logging) and records each operation in the
// transactional "ledger" across the domain boundary (pessimistic logging
// plus testable transactions). Every operation adds one to the session's
// own counter, to back's shared counter 0 and to the ledger's "count";
// the workload checks the first after each operation and the other two
// at the end.
type Storm struct {
	Spec   StormSpec
	W      Workload
	Faults []Fault
	// Front and Back are the same process in a Solo storm, where Ledger
	// is nil.
	Front, Back *MSP
	Ledger      *Store
	// Rec is nil without Spec.Oracle.
	Rec *oracle.Recorder
	// Restarts and TTFR cover both MSPs' successful crash-restarts:
	// crash-to-ready wall-clock time, and each crash-recovered
	// incarnation's time to its first reply.
	Restarts, TTFR metrics.Series

	net    *simnet.Network
	client *core.Client
	disks  []*simdisk.Disk
}

// NewStorm assembles a fresh system: network, processes, client, fault
// plane and (optionally) the oracle taps.
func NewStorm(spec StormSpec) (*Storm, error) {
	st := &Storm{Spec: spec}
	st.net = simnet.New(simnet.Config{OneWay: oneWay, TimeScale: spec.Scale,
		LossRate: spec.Loss, DupRate: spec.Dup, Seed: spec.Seed})
	var tap core.Tap
	if spec.Oracle {
		st.Rec = oracle.NewRecorder()
		tap = st.Rec
	}
	dom := core.NewDomain("storm", oneWay, spec.Scale)
	startMSP := func(id string, fpSeed int64, def core.Definition) (*MSP, error) {
		cfg := core.NewConfig(id, dom, simdisk.NewDisk(simdisk.DefaultModel(spec.Scale)), st.net, def)
		st.disks = append(st.disks, cfg.Disk)
		cfg.SessionCkptThreshold = 64 << 10
		cfg.BatchFlushTimeout = spec.Batch
		cfg.Disk.SetFailpoints(failpoint.New(fpSeed)) // inert until a fault arms a point
		cfg.Tap = tap
		if spec.SVCkptEvery > 0 {
			cfg.SVCkptEvery = spec.SVCkptEvery
		}
		if spec.SegmentSize > 0 {
			// A checkpoint every ~4 segments of log, sessions refreshed
			// every ~2: the live log stays a small multiple of the
			// segment size throughout.
			cfg.WalSegmentSize = spec.SegmentSize
			cfg.MSPCkptEvery = 4 * spec.SegmentSize
			cfg.SessionCkptThreshold = 2 * spec.SegmentSize
		}
		p, err := StartMSP(cfg)
		if err == nil {
			p.Restarts, p.TTFR = &st.Restarts, &st.TTFR
		}
		return p, err
	}

	var err error
	if spec.Solo {
		if st.Back, err = startMSP("sut", spec.Seed+101, CounterApp(1)); err != nil {
			return nil, err
		}
		st.Front = st.Back
	} else {
		ledgerCfg := txmsp.Config{ID: "ledger", Net: st.net, TimeScale: spec.Scale, Tap: tap,
			Disk: simdisk.NewDisk(simdisk.DefaultModel(spec.Scale))}
		ledgerCfg.Disk.SetFailpoints(failpoint.New(spec.Seed + 103))
		st.disks = append(st.disks, ledgerCfg.Disk)
		if st.Ledger, err = StartStore(ledgerCfg); err != nil {
			return nil, err
		}
		if st.Back, err = startMSP("back", spec.Seed+102, CounterApp(1)); err != nil {
			return nil, err
		}
		if st.Front, err = startMSP("front", spec.Seed+101, frontDef()); err != nil {
			return nil, err
		}
	}
	if spec.BreakDedup {
		// Every duplicate request Front receives re-executes instead of
		// being absorbed.
		st.Front.FP.Enable(core.FPDedupSkip, failpoint.Times(-1))
	}

	// Clients in a failpoint or partition storm use the capped
	// exponential backoff so a recovering server sees a spread-out retry
	// wave; the plain storm keeps the paper's fixed 100 ms backoff.
	copts := rpc.DefaultCallOptions(spec.Scale)
	if spec.Failpoints || spec.Partitions {
		copts = rpc.BackoffCallOptions(spec.Scale, spec.Seed)
	}
	st.client = core.NewClient("storm-client", st.net, copts)
	if st.Rec != nil {
		st.client.SetTap(st.Rec)
	}
	st.Faults = st.faults()
	st.W = st.workload()
	st.W.Resend = time.Duration(float64(copts.ResendAfter) * spec.Scale)
	return st, nil
}

// frontDef is Front's one method: mark Back's shared counter, add one to
// the ledger's durable count, advance the session's own counter.
func frontDef() core.Definition {
	return core.Definition{Methods: map[string]core.Handler{
		"op": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
			if _, err := ctx.Call("back", "mark", nil); err != nil {
				return nil, err
			}
			add := txmsp.Tx{Ops: []txmsp.Op{{Kind: txmsp.OpAdd, Key: "count", Value: U64(1)}}}
			if _, err := txmsp.Exec(ctx, "ledger", add); err != nil {
				return nil, err
			}
			return BumpSession(ctx), nil
		},
	}}
}

// faults lists the storm's fault plane. Order matters: the seeded
// scheduler draws by index, so a storm's schedule is a function of its
// seed and this list.
func (st *Storm) faults() []Fault {
	if st.Spec.Solo {
		faults := []Fault{st.Back.RestartFault("crash-sut")}
		if st.Spec.Failpoints {
			faults = append(faults, st.Back.SurfaceFaults(AnyMSP)...)
		}
		return faults
	}
	faults := []Fault{
		st.Front.RestartFault("crash-front"),
		st.Back.RestartFault("crash-back"),
		st.Ledger.RestartFault("crash-ledger"),
	}
	if st.Spec.Failpoints {
		faults = append(faults, st.Front.SurfaceFaults(Front)...)
		faults = append(faults, st.Back.SurfaceFaults(Back)...)
		faults = append(faults, st.Ledger.SurfaceFaults(Ledger)...)
	}
	if st.Spec.Partitions {
		split := [][]simnet.Addr{{"front"}, {"back"}}
		const hold = 100 * time.Millisecond
		faults = append(faults,
			// A plain split: workers blocked on the far side degrade the
			// end client to Busy until the heal.
			PartitionFault("partition", st.net, split, hold, nil),
			// Crash-restart an MSP while the domain is split: its recovery
			// broadcast cannot cross the partition, so the far side learns
			// the new epoch after the heal from the restarted MSP's
			// re-announcement, then sweeps the orphans it was left holding.
			PartitionFault("partition-crash-front", st.net, split, hold, st.Front.Restart),
			PartitionFault("partition-crash-back", st.net, split, hold, st.Back.Restart),
		)
	}
	return faults
}

// workload drives Front's operation — "op", or the counter
// application's "bump" on a lone MSP — from every actor, checking the
// session counter each reply carries, and audits the totals at the end.
func (st *Storm) workload() Workload {
	entry, method := st.Front.Name, "op"
	if st.Spec.Solo {
		method = "bump"
	}
	counter := st.Back.Name + "/" + KeyName(0)
	// The explainability checker balances these declarations against the
	// final states recorded below.
	declare := func(session string, seq uint64) {
		if st.Rec != nil {
			st.Rec.DeclareEffect(session, seq, counter, 1)
			if st.Ledger != nil {
				st.Rec.DeclareEffect(session, seq, "ledger/count", 1)
			}
		}
	}
	return Workload{
		Actors:      st.Spec.Actors,
		OpsPerActor: st.Spec.Ops,
		NewActor: func(int) (func(int) error, func()) {
			sess := st.client.Session(entry)
			return func(n int) error {
				declare(sess.ID(), uint64(n))
				out, err := sess.Call(method, nil)
				if err != nil {
					return err
				}
				if AsU64(out) != uint64(n) {
					return fmt.Errorf("session counter %d, want %d (exactly-once violated)", AsU64(out), n)
				}
				return nil
			}, nil
		},
		FinalCheck: func() error {
			// One extra operation flushes the pipelines; every failure is
			// collected rather than stopping at the first, so a broken
			// storm shows both the audit mismatch and the oracle's verdict.
			want := uint64(st.Spec.Actors*st.Spec.Ops) + 1
			sess := st.client.Session(entry)
			declare(sess.ID(), 1)
			if _, err := BoundedCall(sess, 1, method, nil); err != nil {
				return err
			}
			tot, err := BoundedCall(st.client.Session(st.Back.Name), 1, "total", nil)
			if err != nil {
				return err
			}
			var errs []error
			if AsU64(tot) != want {
				errs = append(errs, fmt.Errorf("shared total %d, want %d", AsU64(tot), want))
			}
			if st.Rec != nil {
				st.Rec.FinalState(counter, int64(AsU64(tot)))
			}
			if st.Ledger != nil {
				ledger := st.Ledger.Current()
				count, _ := ledger.Read("count")
				if AsU64(count) != want {
					errs = append(errs, fmt.Errorf("durable ledger %d, want %d", AsU64(count), want))
				}
				if st.Rec != nil {
					ledger.Digest("final")
					st.Rec.FinalState("ledger/count", int64(AsU64(count)))
				}
			}
			if st.Rec != nil {
				errs = append(errs, oracleVerdict(st.Rec))
			}
			return errors.Join(errs...)
		},
		Halted: st.halted,
	}
}

// halted names the storm's processes whose incarnation has stopped.
func (st *Storm) halted() []string {
	var down []string
	if st.Front.Halted() {
		down = append(down, st.Front.Name)
	}
	if !st.Spec.Solo {
		if st.Back.Halted() {
			down = append(down, st.Back.Name)
		}
		if st.Ledger.Halted() {
			down = append(down, st.Ledger.Name)
		}
	}
	return down
}

// LogLevels sums the live segment files and their durable record bytes
// over every log the storm owns: Front's, Back's and the ledger's journal.
// A closed log keeps its segment table: it holds after Close.
func (st *Storm) LogLevels() (segments int, liveBytes int64) {
	logs := []*wal.Log{st.Front.Current().Log()}
	if !st.Spec.Solo {
		logs = append(logs, st.Back.Current().Log(), st.Ledger.Current().Journal())
	}
	for _, l := range logs {
		for _, seg := range l.Segments() {
			segments++
			liveBytes += seg.Bytes - simdisk.SectorSize // less the header sector
		}
	}
	return segments, liveBytes
}

// Close tears the system down.
func (st *Storm) Close() {
	st.Back.Crash()
	if !st.Spec.Solo {
		st.Front.Crash()
		st.Ledger.Crash()
	}
	st.client.Close()
}

// Sized returns the spec with the workload shape, seed and checkpoint
// threshold a trace carries: the final check compares counters against
// actors × ops, so a shrunken replay must get a system that expects the
// shrunken shape, and replaying someone else's trace must not depend on
// matching their seed.
func (s StormSpec) Sized(t Trace) StormSpec {
	if t.Actors > 0 {
		s.Actors = t.Actors
	}
	if t.OpsPerActor > 0 {
		s.Ops = t.OpsPerActor
	}
	if t.Seed != 0 {
		s.Seed = t.Seed
	}
	if t.SVCkptEvery > 0 {
		s.SVCkptEvery = t.SVCkptEvery
	}
	return s
}

// Trace captures a finished storm of this spec, run under o, as a
// replayable trace.
func (s StormSpec) Trace(o Options, rep Report) Trace {
	t := NewTrace(Workload{Actors: s.Actors, OpsPerActor: s.Ops}, o, rep)
	t.SVCkptEvery = s.SVCkptEvery
	return t
}

// Build is the spec's Builder: a fresh system sized to the candidate
// trace. A fresh system that cannot start is a bug, not a storm outcome.
func (s StormSpec) Build(t Trace) (Workload, []Fault, func()) {
	st, err := NewStorm(s.Sized(t))
	if err != nil {
		panic(fmt.Sprintf("chaos: building a fresh storm system: %v", err))
	}
	return st.W, st.Faults, st.Close
}

// RunStorm builds the system spec describes, runs the storm under o —
// replaying o.Schedule verbatim when it is set — and tears it down. The
// Storm comes back closed: its Restarts, TTFR and Rec hold what the
// harness measured around the report.
func RunStorm(spec StormSpec, o Options) (Report, *Storm, error) {
	st, err := NewStorm(spec)
	if err != nil {
		return Report{}, nil, err
	}
	defer st.Close()
	return Run(st.W, st.Faults, o), st, nil
}
