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
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mspr/internal/chaos"
	"mspr/internal/metrics"
)

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
		"arm the partition surface: split the service domain, crash-restart MSPs while split (recovery broadcasts lost), heal while the restarted MSPs re-announce until acked")
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
		os.Exit(runOverloadStorm(chaos.OverloadSpec{
			Seed: *seed, Scale: *scale, Loss: *loss, Dup: *dup,
			Factor: *overloadX, Duration: *overloadDur,
			Keys: *overloadKeys, Burst: *overloadBurst,
			Crashes: *overloadCrashes, QueueDepth: *overloadQueue,
		}))
	}

	spec := chaos.StormSpec{
		Actors: *actors, Ops: *ops, Seed: *seed,
		Loss: *loss, Dup: *dup, Scale: *scale,
		Batch: *batchFlush, SegmentSize: *segSize,
		Failpoints: *failpoints, Partitions: *partitions,
		Oracle: *useOracle, BreakDedup: *breakDedup,
	}
	opts := chaos.Options{Seed: *seed, FaultEvery: *faultEvery}
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
		spec, opts = spec.Sized(tr), tr.Options()
	}
	rep, st, err := chaos.RunStorm(spec, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(rep)
	n := &metrics.Net
	fmt.Printf("net: shedAtAdmission=%d partitionDrops=%d blockedDrops=%d lossDrops=%d\n",
		metrics.Overload.ShedAtAdmission.Load(), n.PartitionDrops.Load(), n.BlockedDrops.Load(), n.LossDrops.Load())
	fmt.Printf("ctl: flushDeadlines=%d peerDown=%d broadcastMissed=%d\n",
		n.FlushDeadlinesExceeded.Load(), n.PeerDownEvents.Load(), n.BroadcastPeersMissed.Load())
	w := &metrics.Wal
	if batches := w.GroupCommitBatches.Load(); batches > 0 {
		fmt.Printf("wal: groupCommitBatches=%d waitersPerBatch=%.2f windowsHeld=%d waits=%d\n",
			batches, float64(w.GroupCommitBatchWaiters.Load())/float64(batches),
			w.GroupCommitWindows.Load(), w.GroupCommitWaits.Load())
	}
	segs, live := st.LogLevels()
	fmt.Printf("wal: rotations=%d segmentsLive=%d segmentsReclaimed=%d liveLogBytes=%d peakLiveBytes=%d\n",
		w.Rotations.Load(), segs, w.SegmentsReclaimed.Load(), live, w.PeakLiveBytes.Load())
	if rs := &st.Restarts; rs.Count() > 0 {
		fmt.Printf("recovery: restarts=%d avg=%v max=%v\n", rs.Count(), rs.Mean().Round(time.Millisecond), rs.Max().Round(time.Millisecond))
	}
	if tt := &st.TTFR; tt.Count() > 0 {
		fmt.Printf("recovery: timeToFirstReply p50=%v max=%v (%d incarnations)\n",
			tt.Percentile(50).Round(time.Millisecond), tt.Max().Round(time.Millisecond), tt.Count())
	}
	r := &metrics.Recovery
	fmt.Printf("recovery: lazyReplays=%d sweepReplays=%d\n", r.LazyReplays.Load(), r.SweepReplays.Load())
	printOverloadMetrics()
	if st.Rec != nil {
		fmt.Printf("oracle: %d events recorded\n", st.Rec.Len())
	}
	for _, err := range rep.Errors {
		fmt.Fprintln(os.Stderr, " -", err)
	}

	tr := spec.Trace(opts, rep)
	if rep.Failed() && *minimize {
		fmt.Println("minimizing failing storm...")
		min, stats := chaos.Minimize(spec.Build, tr)
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
