// Command mspr-chaos storm-tests the full stack: the paper's two-MSP
// service-domain workload plus a transactional resource manager, under
// randomized crash-restarts of all three processes and a lossy,
// duplicating network. It verifies the recovery infrastructure's
// promises end to end:
//
//   - every session's operation counter advances exactly once per op,
//   - the shared in-memory total equals the number of operations,
//   - the durable transactional ledger equals the number of operations.
//
// With -oracle the storm additionally records a full client/server event
// history and runs the four correctness checkers (exactly-once, session
// monotonicity, shared-state explainability, no-orphan-reply) over it —
// see internal/oracle.
//
// Failing storms are reproducible: -trace writes the seed and the exact
// ordered fault schedule as JSON, -replay re-fires a recorded schedule
// verbatim, and -minimize shrinks a failing storm to the smallest
// schedule and workload that still reproduce before writing the trace.
//
// Exit status is non-zero on any violation.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/failpoint"
	"mspr/internal/metrics"
	"mspr/internal/oracle"
	"mspr/internal/rpc"
	"mspr/internal/sdb"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/txmsp"
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

// stormConfig is everything needed to build one pristine storm system —
// the minimizer rebuilds from it for every candidate execution.
type stormConfig struct {
	actors, ops int
	seed        int64
	loss, dup   float64
	scale       float64
	batch       time.Duration
	segSize     int64
	failpoints  bool
	partitions  bool
	oracle      bool
	breakDedup  bool
}

// storm is one built system: workload, fault set, the recorder (nil
// without -oracle) and a teardown.
type storm struct {
	w        chaos.Workload
	faults   []chaos.Fault
	rec      *oracle.Recorder
	restarts *chaos.RestartTimes
	ttfr     *chaos.DurationSeries
	close    func()
}

// buildStorm assembles the fresh system: network, ledger, back and front
// MSPs, client, fault plane, and (optionally) the oracle taps.
func buildStorm(c stormConfig) (*storm, error) {
	net := simnet.New(simnet.Config{
		OneWay: 1798 * time.Microsecond, TimeScale: c.scale,
		LossRate: c.loss, DupRate: c.dup, Seed: c.seed,
	})

	var rec *oracle.Recorder
	if c.oracle {
		rec = oracle.NewRecorder()
	}

	// Per-process failpoint registries (inert until -failpoints arms them).
	fpFront := failpoint.New(c.seed + 101)
	fpBack := failpoint.New(c.seed + 102)
	fpLedger := failpoint.New(c.seed + 103)
	if c.breakDedup {
		// Sabotage for demonstrating the oracle: every duplicate request
		// the front MSP receives re-executes instead of being absorbed.
		fpFront.Enable(core.FPDedupSkip, failpoint.Times(-1))
	}

	// The transactional resource manager (durable ledger).
	rmCfg := txmsp.Config{ID: "ledger", Net: net,
		Disk: simdisk.NewDisk(simdisk.DefaultModel(c.scale)), TimeScale: c.scale}
	rmCfg.Disk.SetFailpoints(fpLedger)
	if rec != nil {
		rmCfg.Tap = rec
	}
	rm, err := txmsp.Start(rmCfg)
	if err != nil {
		return nil, err
	}

	// front calls back (intra-domain, optimistic logging) and records the
	// op in the durable ledger (cross-domain, pessimistic + testable tx).
	dom := core.NewDomain("storm", 1798*time.Microsecond, c.scale)
	backDef := core.Definition{
		Methods: map[string]core.Handler{
			"mark": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
				return ctx.UpdateShared("total", func(old []byte) []byte { return u64(asU64(old) + 1) })
			},
			"total": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
				return ctx.ReadShared("total")
			},
		},
		Shared: []core.SharedDef{{Name: "total", Initial: u64(0)}},
	}
	frontDef := core.Definition{
		Methods: map[string]core.Handler{
			"op": func(ctx *core.Ctx, _ []byte) ([]byte, error) {
				if _, err := ctx.Call("back", "mark", nil); err != nil {
					return nil, err
				}
				if _, err := txmsp.Exec(ctx, "ledger", txmsp.Tx{Ops: []txmsp.Op{
					{Kind: txmsp.OpAdd, Key: "count", Value: u64(1)},
				}}); err != nil {
					return nil, err
				}
				n := asU64(ctx.GetVar("n")) + 1
				ctx.SetVar("n", u64(n))
				return u64(n), nil
			},
		},
	}
	mkCfg := func(id string, def core.Definition, fp *failpoint.Registry) core.Config {
		cfg := core.NewConfig(id, dom, simdisk.NewDisk(simdisk.DefaultModel(c.scale)), net, def)
		cfg.SessionCkptThreshold = 64 << 10
		cfg.TimeScale = c.scale
		cfg.BatchFlushTimeout = c.batch
		cfg.Failpoints = fp
		if c.segSize > 0 {
			// A bounded-disk storm: tiny segments force frequent rotation,
			// and checkpoint cadence scaled to the segment size keeps
			// truncation reclaiming them (a checkpoint every ~4 segments of
			// log, sessions refreshed every ~2), so the live log stays a
			// small multiple of the segment size throughout.
			cfg.WalSegmentSize = c.segSize
			cfg.MSPCkptEvery = 4 * c.segSize
			cfg.SessionCkptThreshold = 2 * c.segSize
		}
		if rec != nil {
			cfg.Tap = rec
		}
		if c.partitions {
			// A partition storm loses recovery broadcasts; the periodic
			// knowledge pull guarantees orphan detection converges after
			// the heal even on a quiet link.
			cfg.AntiEntropyEvery = 200 * time.Millisecond
		}
		return cfg
	}
	backCfg := mkCfg("back", backDef, fpBack)
	frontCfg := mkCfg("front", frontDef, fpFront)
	back, err := core.Start(backCfg)
	if err != nil {
		return nil, err
	}
	front, err := core.Start(frontCfg)
	if err != nil {
		return nil, err
	}

	// Clients in a failpoint storm use the capped exponential backoff so
	// a recovering server sees a spread-out retry wave; the plain storm
	// keeps the paper's fixed 100 ms backoff.
	copts := rpc.DefaultCallOptions(c.scale)
	if c.failpoints || c.partitions {
		copts = rpc.BackoffCallOptions(c.scale, c.seed)
	}
	client := core.NewClient("storm-client", net, copts)
	if rec != nil {
		client.SetTap(rec)
	}

	var procMu sync.Mutex
	restarts := &chaos.RestartTimes{}
	ttfr := &chaos.DurationSeries{}
	// An incarnation's time-to-first-reply is harvested lazily — when it
	// is next crashed, or at teardown — so the restart path never waits
	// for the measurement's first reply to happen.
	harvestTTFR := func(s *core.Server) {
		if d := s.TimeToFirstReply(); d > 0 {
			ttfr.Observe(d)
		}
	}
	// On a failed Start (an armed point crashed recovery itself) the old
	// pointer is kept: its Crash is idempotent, so the fault's retry can
	// crash-restart again. Successful restarts record their crash-to-ready
	// wall-clock duration, so the storm report bounds recovery time.
	restartFront := func() error {
		t0 := time.Now()
		harvestTTFR(front)
		front.Crash()
		s, err := core.Start(frontCfg)
		if err == nil {
			front = s
			restarts.Observe(time.Since(t0))
		}
		return err
	}
	restartBack := func() error {
		t0 := time.Now()
		harvestTTFR(back)
		back.Crash()
		s, err := core.Start(backCfg)
		if err == nil {
			back = s
			restarts.Observe(time.Since(t0))
		}
		return err
	}
	restartLedger := func() error {
		rm.Crash()
		r, err := txmsp.Start(rmCfg)
		if err == nil {
			rm = r
		}
		return err
	}
	faults := []chaos.Fault{
		chaos.RestartFault("crash-front", &procMu, restartFront),
		chaos.RestartFault("crash-back", &procMu, restartBack),
		chaos.RestartFault("crash-ledger", &procMu, restartLedger),
	}
	if c.failpoints {
		faults = append(faults,
			// Torn log writes and anchor corruption land inside the next
			// incarnation's recovery checkpoint; the core.FPRecovery*
			// points crash the recovery machinery itself.
			chaos.CrashPointFault("torn-front-log", &procMu, fpFront,
				simdisk.FPWriteTorn+":front.log", restartFront),
			chaos.CrashPointFault("front-crash-mid-scan", &procMu, fpFront,
				core.FPRecoveryMidScan, restartFront),
			chaos.CrashPointFault("back-torn-anchor", &procMu, fpBack,
				wal.FPAnchorCrash, restartBack),
			chaos.CrashPointFault("back-crash-mid-replay", &procMu, fpBack,
				core.FPReplayMidSession, restartBack),
			// The instant-recovery window: crash between the analysis pass
			// and the first reply, during a lazy (first-touch) session
			// replay, and inside the background sweep.
			chaos.CrashPointFault("front-crash-before-serve", &procMu, fpFront,
				core.FPRecoveryBeforeServe, restartFront),
			chaos.CrashPointFault("front-crash-lazy-replay", &procMu, fpFront,
				core.FPLazyReplay, restartFront),
			chaos.CrashPointFault("back-crash-mid-sweep", &procMu, fpBack,
				core.FPSweepMid, restartBack),
			// The ledger fault wedges a commit mid-flight (journal record
			// durable, acknowledgement lost) and then restarts the store;
			// testable transactions must absorb the client's resend.
			// Rotation and truncation crash points: crash the log's segment
			// machinery at each step of its protocol (before the new segment
			// file exists, between create and anchor update, after the
			// anchor, and between truncation's segment deletions). With a
			// small -segment-size every step is reached constantly.
			chaos.CrashPointFault("front-crash-rotate-pre-create", &procMu, fpFront,
				wal.FPRotateBeforeCreate, restartFront),
			chaos.CrashPointFault("front-crash-rotate-orphan", &procMu, fpFront,
				wal.FPRotateAfterCreate, restartFront),
			chaos.CrashPointFault("back-crash-rotate-post-anchor", &procMu, fpBack,
				wal.FPRotateAfterAnchor, restartBack),
			chaos.CrashPointFault("front-crash-mid-truncate", &procMu, fpFront,
				wal.FPTruncateCrash, restartFront),
			chaos.CrashPointFault("back-crash-mid-truncate", &procMu, fpBack,
				wal.FPTruncateCrash, restartBack),
			chaos.Fault{Name: "wedge-ledger", Fire: func() error {
				before := fpLedger.Hits(sdb.FPCommitCrash)
				fpLedger.Enable(sdb.FPCommitCrash, failpoint.Times(1))
				deadline := time.Now().Add(2 * time.Second)
				for fpLedger.Hits(sdb.FPCommitCrash) == before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				procMu.Lock()
				defer procMu.Unlock()
				fpLedger.Disable(sdb.FPCommitCrash)
				return restartLedger()
			}},
		)
	}
	if c.partitions {
		split := [][]simnet.Addr{{"front"}, {"back"}}
		hold := 100 * time.Millisecond
		faults = append(faults,
			// A plain split: workers blocked on the far side degrade the
			// end client to Busy until the heal.
			chaos.PartitionFault("partition", &procMu, net, split, hold, nil),
			// Crash-restart an MSP while the domain is split: its recovery
			// broadcast cannot cross the partition, so the far side must
			// learn the new epoch afterwards via piggybacked knowledge and
			// anti-entropy, then sweep the orphans it was left holding.
			chaos.PartitionFault("partition-crash-front", &procMu, net, split, hold, restartFront),
			chaos.PartitionFault("partition-crash-back", &procMu, net, split, hold, restartBack),
		)
	}

	declare := func(session string, seq uint64) {
		if rec != nil {
			// Each op adds one to the back MSP's shared total and one to
			// the ledger; the explainability checker balances these
			// declarations against the finals below.
			rec.DeclareEffect(session, seq, "back/total", 1)
			rec.DeclareEffect(session, seq, "ledger/count", 1)
		}
	}
	w := chaos.Workload{
		Actors:      c.actors,
		OpsPerActor: c.ops,
		NewActor: func(i int) (func(int) error, func()) {
			sess := client.Session("front")
			return func(n int) error {
				declare(sess.ID(), uint64(n))
				out, err := sess.Call("op", nil)
				if err != nil {
					return err
				}
				if asU64(out) != uint64(n) {
					return fmt.Errorf("session counter %d, want %d", asU64(out), n)
				}
				return nil
			}, nil
		},
		FinalCheck: func() error {
			// Collect every failure rather than stopping at the first, so
			// a broken storm shows both the audit mismatch and the
			// oracle's checker verdicts.
			var errs []string
			want := uint64(c.actors * c.ops)
			sess := client.Session("front")
			declare(sess.ID(), 1)
			if _, err := sess.Call("op", nil); err != nil { // one extra op to flush pipelines
				return err
			}
			audit := client.Session("back")
			tot, err := audit.Call("total", nil)
			if err != nil {
				return err
			}
			if asU64(tot) != want+1 {
				errs = append(errs, fmt.Sprintf("shared total %d, want %d", asU64(tot), want+1))
			}
			procMu.Lock()
			ledger, _ := rm.Read("count")
			if rec != nil {
				rm.Digest("final")
			}
			procMu.Unlock()
			if asU64(ledger) != want+1 {
				errs = append(errs, fmt.Sprintf("durable ledger %d, want %d", asU64(ledger), want+1))
			}
			if rec != nil {
				rec.FinalState("back/total", int64(asU64(tot)))
				rec.FinalState("ledger/count", int64(asU64(ledger)))
				if vs := rec.Check(); len(vs) != 0 {
					for _, v := range vs {
						fmt.Fprintln(os.Stderr, " oracle:", v)
					}
					errs = append(errs, fmt.Sprintf("oracle: %d violations (%d events recorded)", len(vs), rec.Len()))
				}
			}
			if len(errs) > 0 {
				return fmt.Errorf("%s", strings.Join(errs, "; "))
			}
			return nil
		},
	}
	st := &storm{w: w, faults: faults, rec: rec, restarts: restarts, ttfr: ttfr}
	st.close = func() {
		procMu.Lock()
		harvestTTFR(front)
		harvestTTFR(back)
		front.Crash()
		back.Crash()
		rm.Crash()
		procMu.Unlock()
		client.Close()
	}
	return st, nil
}

func writeTrace(path string, tr chaos.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	actors := flag.Int("actors", 6, "concurrent client sessions")
	ops := flag.Int("ops", 40, "operations per actor")
	faultEvery := flag.Int("fault-every", 30, "operations between crash-restarts (0 = none)")
	seed := flag.Int64("seed", 1, "deterministic storm seed")
	loss := flag.Float64("loss", 0.03, "network loss rate")
	dup := flag.Float64("dup", 0.03, "network duplication rate")
	scale := flag.Float64("scale", 0.005, "time scale")
	batchFlush := flag.Duration("batch-flush", 8*time.Millisecond,
		"group-commit batch window in model time (0 = flush each record immediately)")
	segSize := flag.Int64("segment-size", 0,
		"log segment data capacity in bytes (0 = the 4 MB default); a small value forces constant rotation and truncation, and scales the checkpoint cadence to match")
	failpoints := flag.Bool("failpoints", false,
		"arm the injected crash surface: torn log writes, anchor corruption, crashes inside recovery, mid-commit store crashes")
	partitions := flag.Bool("partitions", false,
		"arm the partition surface: split the service domain, crash-restart MSPs while split (recovery broadcasts lost), heal and let anti-entropy converge")
	useOracle := flag.Bool("oracle", false,
		"record the full client/server event history and run the correctness checkers over it")
	breakDedup := flag.Bool("break-dedup", false,
		"sabotage request deduplication at the front MSP (demonstrates the oracle catching a duplicate execution)")
	overloadStorm := flag.Bool("overload", false,
		"run the saturation storm instead: measure closed-loop capacity, flood open-loop at -overload-x times it with bursty Zipf-keyed arrivals, crash-restart mid-saturation, and oracle-check the history")
	overloadX := flag.Float64("overload-x", 4, "offered load as a multiple of the measured closed-loop capacity")
	overloadDur := flag.Duration("overload-duration", 2*time.Second, "wall-clock open-loop flood window")
	overloadKeys := flag.Int("overload-keys", 16, "Zipf key-space size for the flood")
	overloadBurst := flag.Int("overload-burst", 8, "arrivals per open-loop burst")
	overloadCrashes := flag.Int("overload-crashes", 2, "crash-restarts fired during the flood")
	overloadQueue := flag.Int("overload-queue", 512, "normal-lane admission queue capacity for the flooded server")
	tracePath := flag.String("trace", "", "write the storm's replayable JSON trace to this file")
	replayPath := flag.String("replay", "", "replay the fault schedule from this JSON trace instead of generating one")
	minimize := flag.Bool("minimize", false,
		"on failure, shrink the storm to a minimal failing trace (written to -trace, default storm-min.json)")
	flag.Parse()

	if *overloadStorm {
		os.Exit(runOverloadStorm(overloadConfig{
			seed: *seed, scale: *scale, loss: *loss, dup: *dup,
			factor: *overloadX, duration: *overloadDur,
			keys: *overloadKeys, burst: *overloadBurst,
			crashes: *overloadCrashes, queueDepth: *overloadQueue,
		}))
	}

	cfg := stormConfig{
		actors: *actors, ops: *ops, seed: *seed,
		loss: *loss, dup: *dup, scale: *scale,
		batch: *batchFlush, segSize: *segSize,
		failpoints: *failpoints, partitions: *partitions,
		oracle: *useOracle, breakDedup: *breakDedup,
	}
	// build sizes a fresh system to the candidate trace: the workload's
	// final check compares counters against actors × ops, so a shrunken
	// replay must get a system that expects the shrunken shape.
	build := func(tr chaos.Trace) (chaos.Workload, []chaos.Fault, func()) {
		c := cfg
		if tr.Actors > 0 {
			c.actors = tr.Actors
		}
		if tr.OpsPerActor > 0 {
			c.ops = tr.OpsPerActor
		}
		if tr.Seed != 0 {
			// The trace's seed drives the rebuilt system too (network
			// loss/duplication, failpoint draws) — replaying someone
			// else's trace must not depend on matching their -seed flag.
			c.seed = tr.Seed
		}
		st, err := buildStorm(c)
		if err != nil {
			log.Fatal(err)
		}
		return st.w, st.faults, st.close
	}

	opts := chaos.Options{Seed: *seed, FaultEvery: *faultEvery}
	var rep chaos.Report
	var st *storm
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := chaos.DecodeTrace(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replaying %s: %d faults over %d actors x %d ops (seed %d)\n",
			*replayPath, len(tr.Schedule), tr.Actors, tr.OpsPerActor, tr.Seed)
		if tr.Actors > 0 {
			cfg.actors = tr.Actors
		}
		if tr.OpsPerActor > 0 {
			cfg.ops = tr.OpsPerActor
		}
		if tr.Seed != 0 {
			cfg.seed = tr.Seed
		}
		if st, err = buildStorm(cfg); err != nil {
			log.Fatal(err)
		}
		rep = chaos.Replay(st.w, st.faults, tr)
		opts = tr.Options()
	} else {
		var err error
		if st, err = buildStorm(cfg); err != nil {
			log.Fatal(err)
		}
		rep = chaos.Run(st.w, st.faults, opts)
	}
	st.close()

	fmt.Println(rep)
	n := &metrics.Net
	fmt.Printf("net: reqQueueDrops=%d partitionDrops=%d blockedDrops=%d lossDrops=%d\n",
		n.RequestQueueDrops.Load(), n.PartitionDrops.Load(), n.BlockedDrops.Load(), n.LossDrops.Load())
	fmt.Printf("ctl: dups=%d flushDeadlines=%d peerDown=%d antiEntropyPulls=%d broadcastMissed=%d\n",
		n.CtlDuplicates.Load(), n.FlushDeadlinesExceeded.Load(), n.PeerDownEvents.Load(),
		n.AntiEntropyPulls.Load(), n.BroadcastPeersMissed.Load())
	w := &metrics.Wal
	if batches := w.GroupCommitBatches.Load(); batches > 0 {
		fmt.Printf("wal: groupCommitBatches=%d waitersPerBatch=%.2f windowsHeld=%d waits=%d\n",
			batches, float64(w.GroupCommitBatchWaiters.Load())/float64(batches),
			w.GroupCommitWindows.Load(), w.GroupCommitWaits.Load())
	}
	fmt.Printf("wal: rotations=%d segmentsLive=%d segmentsReclaimed=%d liveLogBytes=%d peakLiveBytes=%d\n",
		w.Rotations.Load(), w.SegmentsLive.Load(), w.SegmentsReclaimed.Load(),
		w.LiveLogBytes.Load(), w.PeakLiveBytes.Load())
	if n, avg, max := st.restarts.Summary(); n > 0 {
		fmt.Printf("recovery: restarts=%d avg=%v max=%v\n", n, avg.Round(time.Millisecond), max.Round(time.Millisecond))
	}
	if st.ttfr.Count() > 0 {
		fmt.Printf("recovery: timeToFirstReply p50=%v max=%v (%d incarnations)\n",
			st.ttfr.Percentile(50).Round(time.Millisecond), st.ttfr.Max().Round(time.Millisecond), st.ttfr.Count())
	}
	r := &metrics.Recovery
	fmt.Printf("recovery: lazyReplays=%d sweepReplays=%d pendingSessions=%d pendingShared=%d\n",
		r.LazyReplays.Load(), r.SweepReplays.Load(), r.PendingSessions.Load(), r.PendingShared.Load())
	printOverloadMetrics()
	if st.rec != nil {
		fmt.Printf("oracle: %d events recorded\n", st.rec.Len())
	}
	for _, err := range rep.Errors {
		fmt.Fprintln(os.Stderr, " -", err)
	}

	tr := chaos.NewTrace(st.w, opts, rep)
	if rep.Failed() && *minimize {
		fmt.Println("minimizing failing storm...")
		min, stats := chaos.Minimize(build, tr)
		if stats.Reproduced {
			min.Note = fmt.Sprintf("minimized in %d attempts from a %d-fault schedule", stats.Attempts, len(tr.Schedule))
			tr = min
			fmt.Printf("minimized to %d faults over %d actors x %d ops (%d attempts)\n",
				len(min.Schedule), min.Actors, min.OpsPerActor, stats.Attempts)
		} else {
			fmt.Println("storm did not reproduce on re-execution; keeping the original trace")
		}
		if *tracePath == "" {
			*tracePath = "storm-min.json"
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, tr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s\n", *tracePath)
	}
	if rep.Failed() {
		os.Exit(1)
	}
}
