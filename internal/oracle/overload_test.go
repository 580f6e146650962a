package oracle_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mspr/internal/core"
	"mspr/internal/metrics"
	"mspr/internal/oracle"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/workload"
)

// TestOverloadStormOracleClean is the in-tree saturation storm: an
// open-loop bursty flood at several times the server's capacity, with
// Zipf-skewed keys, per-call deadlines, a shared retry budget and a
// circuit breaker on the client, and crash-restarts mid-saturation. The
// oracle records the full history; the test requires zero correctness
// violations — shedding must never manufacture or lose an execution —
// plus evidence the storm actually shed, and a queue depth bounded by
// the configured admission-lane capacities.
func TestOverloadStormOracleClean(t *testing.T) {
	const (
		keys       = 4
		queueDepth = 32
		prioDepth  = 8
		floodFor   = 600 * time.Millisecond
		floodRate  = 4000 // arrivals/s, several times the ~1ms-per-op capacity
	)
	net := simnet.New(simnet.Config{TimeScale: 0, DupRate: 0.2, Seed: 7})
	rec := oracle.NewRecorder()

	keyName := func(k int) string { return fmt.Sprintf("key-%d", k) }
	shared := make([]core.SharedDef, keys)
	for i := range shared {
		shared[i] = core.SharedDef{Name: keyName(i), Initial: u64(0)}
	}
	def := core.Definition{
		Methods: map[string]core.Handler{
			"mark": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				time.Sleep(time.Millisecond) // calibrated service time: ~1k ops/s/worker
				return ctx.UpdateShared(keyName(int(asU64(arg))), func(old []byte) []byte { return u64(asU64(old) + 1) })
			},
			"get": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				return ctx.ReadShared(keyName(int(asU64(arg))))
			},
		},
		Shared: shared,
	}
	dom := core.NewDomain("overload-e2e", 0, 0)
	cfg := core.NewConfig("ovl", dom, simdisk.NewDisk(simdisk.DefaultModel(0)), net, def)
	cfg.Workers = 2
	cfg.RequestQueueDepth = queueDepth
	cfg.PriorityQueueDepth = prioDepth
	cfg.Tap = rec
	srv, err := core.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var procMu sync.Mutex
	defer func() {
		procMu.Lock()
		srv.Crash()
		procMu.Unlock()
	}()

	peak0 := metrics.Overload.QueueDepthPeak.Load()
	shedAdm0 := metrics.Overload.ShedAtAdmission.Load()
	shedExp0 := metrics.Overload.ShedExpired.Load()

	floodOpts := rpc.DefaultCallOptions(0)
	floodOpts.TimeScale = 1
	floodOpts.Timeout = 150 * time.Millisecond
	floodOpts.Budget = rpc.NewRetryBudget(2, 0.5)
	floodOpts.Breaker = rpc.NewBreaker(8, 10*time.Millisecond)
	floodClient := core.NewClient("flood-client", net, floodOpts)
	defer floodClient.Close()
	floodClient.SetTap(rec)

	// Two crash-restarts while the flood is saturating the gate.
	restartDone := make(chan error, 2)
	go func() {
		for i := 0; i < 2; i++ {
			time.Sleep(floodFor / 3)
			procMu.Lock()
			srv.Crash()
			s, err := core.Start(cfg)
			if err == nil {
				srv = s
			}
			procMu.Unlock()
			restartDone <- err
		}
	}()

	arrivals := workload.NewArrivals(workload.ArrivalParams{Rate: floodRate, Burst: 8, Seed: 1})
	zipf := workload.NewZipfKeys(workload.ZipfParams{Keys: keys, Skew: 1.2, Seed: 2})
	var wg sync.WaitGroup
	var okOps, shedOps, otherErrs atomic.Int64
	start := time.Now()
	next := start
	for time.Now().Before(start.Add(floodFor)) {
		next = next.Add(arrivals.Next())
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		k := zipf.Next()
		wg.Add(1)
		// One call per session, abandoned on any non-terminal outcome: a
		// shed request's sequence number is never reused with different
		// arguments, so the duplicate path stays well-defined.
		go func(k int) {
			defer wg.Done()
			sess := floodClient.Session("ovl")
			rec.DeclareEffect(sess.ID(), 1, "ovl/"+keyName(k), 1)
			_, err := sess.Call("mark", u64(uint64(k)))
			switch err {
			case nil:
				okOps.Add(1)
			case rpc.ErrOverloaded, rpc.ErrCircuitOpen, rpc.ErrDeadlineExceeded:
				shedOps.Add(1)
			default:
				if _, ok := err.(*rpc.AppError); !ok {
					otherErrs.Add(1)
				}
			}
		}(k)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-restartDone; err != nil {
			t.Fatalf("crash-restart mid-saturation failed: %v", err)
		}
	}

	// Drain and audit with a patient closed-loop client, then run the
	// checkers over the whole recorded history.
	auditClient := core.NewClient("audit-client", net, rpc.DefaultCallOptions(0))
	defer auditClient.Close()
	auditClient.SetTap(rec)
	audit := auditClient.Session("ovl")
	for k := 0; k < keys; k++ {
		v, err := audit.Call("get", u64(uint64(k)))
		if err != nil {
			t.Fatalf("audit read %s: %v", keyName(k), err)
		}
		rec.FinalState("ovl/"+keyName(k), int64(asU64(v)))
	}

	if vs := rec.Check(); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("oracle: %v", v)
		}
		t.Fatalf("oracle: %d violations under saturation (%d events)", len(vs), rec.Len())
	}
	if otherErrs.Load() > 0 {
		t.Fatalf("%d flooded calls failed with non-overload errors", otherErrs.Load())
	}
	serverSheds := (metrics.Overload.ShedAtAdmission.Load() - shedAdm0) +
		(metrics.Overload.ShedExpired.Load() - shedExp0)
	if serverSheds == 0 || shedOps.Load() == 0 {
		t.Fatalf("storm never saturated: serverSheds=%d clientSheds=%d ok=%d",
			serverSheds, shedOps.Load(), okOps.Load())
	}
	// The bounded-queue promise: the peak gauge is process-wide and
	// monotonic, so only assert when this storm's bound was not already
	// exceeded by an earlier (bigger) storm in the same process.
	bound := int64(queueDepth + prioDepth)
	if peak := metrics.Overload.QueueDepthPeak.Load(); peak0 <= bound && peak > bound {
		t.Fatalf("queue depth peaked at %d, above the %d lane capacity", peak, bound)
	}
	t.Logf("overload storm: ok=%d clientSheds=%d serverSheds=%d events=%d",
		okOps.Load(), shedOps.Load(), serverSheds, rec.Len())
}
