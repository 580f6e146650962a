package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mspr/internal/dv"
	"mspr/internal/logrec"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/wal"
)

// Shared-variable checkpoints run on a background goroutine that the
// write reaching Config.SVCkptEvery schedules (SharedVar.checkpoint). The
// tests below gate on partitions, counters and the variable's own lock,
// never on a wall-clock margin (the time-outs are liveness bounds), at two
// time scales and, inside each test, on 1, 2 and 8 scheduler threads: a
// checkpoint scheduled and then raced is the kind of code that is only
// wrong at one width.

// svckptForever is a flush deadline no test outlives at a nonzero time
// scale. At scale 0 every control deadline clamps to its 25 ms wall-clock
// floor, so there a partitioned flush gives up instead of holding; the
// tests assert only what is true either way.
const svckptForever = 1000 * time.Hour

func atEveryWidth(t *testing.T, body func(t *testing.T, e *testEnv)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		for _, scale := range []float64{0, 0.02} {
			runtime.GOMAXPROCS(procs)
			t.Run(fmt.Sprintf("procs=%d/scale=%v", procs, scale), func(t *testing.T) {
				e := newTestEnv(t)
				e.net = simnet.New(simnet.Config{TimeScale: scale})
				e.client = NewClient("client", e.net, rpc.DefaultCallOptions(scale))
				for _, id := range []string{"msp1", "msp2"} {
					e.disks[id] = simdisk.NewDisk(simdisk.DefaultModel(scale))
				}
				defer e.cleanup()
				body(t, e)
			})
		}
	}
}

// svckptDef is bumpDef plus a blind write and a read of "total".
func svckptDef() Definition {
	def := bumpDef(nil)
	def.Methods["set"] = func(ctx *Ctx, arg []byte) ([]byte, error) {
		return arg, ctx.WriteShared("total", arg)
	}
	def.Methods["peek"] = func(ctx *Ctx, _ []byte) ([]byte, error) {
		return ctx.ReadShared("total")
	}
	return def
}

// intraCaller is a peer inside the domain, played by a bare endpoint: its
// replies need no flush, and the dependency vector it attaches to a
// request becomes a dependency of the serving session — and of every
// value that session writes.
type intraCaller struct {
	t   *testing.T
	ep  *simnet.Endpoint
	seq map[string]uint64
}

func newIntraCaller(t *testing.T, e *testEnv) *intraCaller {
	return &intraCaller{t: t, ep: e.net.Endpoint("peer-cli"), seq: make(map[string]uint64)}
}

func (c *intraCaller) call(target simnet.Addr, session, method string, arg []byte, deps dv.Vector) rpc.Reply {
	c.t.Helper()
	c.seq[session]++
	seq := c.seq[session]
	// Busy is resent: the session may have sent its previous reply and
	// not yet let go.
	rep := callRawTo(c.t, c.ep, target, rpc.Request{Session: session, Seq: seq, Method: method, Arg: arg,
		NewSession: seq == 1, HasDV: true, DV: deps, From: c.ep.Addr()})
	if rep.Status != rpc.StatusOK {
		c.t.Fatalf("%s %s on %s: status %v (%s)", session, method, target, rep.Status, rep.Payload)
	}
	return rep
}

// svState reads the fields the tests assert on under the variable's lock.
// Taking the lock also waits out a checkpoint that is running.
func svState(sv *SharedVar) (value uint64, writesSince int, queued bool, lastCkpt wal.LSN) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return asU64(sv.value), sv.writesSince, sv.ckptQueued, sv.lastCkptLSN
}

// lastCheckpointValue decodes the variable's most recent checkpoint record.
func lastCheckpointValue(t *testing.T, srv *Server, sv *SharedVar) uint64 {
	t.Helper()
	_, _, _, lsn := svState(sv)
	typ, payload, err := srv.log.ReadRecord(lsn)
	if err != nil || logrec.Type(typ) != logrec.TSVCheckpoint {
		t.Fatalf("record at the checkpoint LSN %d: type %v, err %v", lsn, logrec.Type(typ), err)
	}
	rec, err := logrec.DecodeSVCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	return asU64(rec.Value)
}

// goroutinesIn counts the live goroutines whose stack has a frame of the
// named function.
func goroutinesIn(function string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, function) {
			n++
		}
	}
	return n
}

// TestSVCheckpointLeavesTheRequestPath: the write that reaches the
// threshold, and the intra-domain request that made it, complete while the
// peer the value depends on is partitioned away — the checkpoint's
// distributed flush is not theirs to wait for. (With the flush inline the
// request hangs until FlushDeadline.) No checkpoint can land meanwhile;
// once the peer is back exactly one does.
func TestSVCheckpointLeavesTheRequestPath(t *testing.T) {
	atEveryWidth(t, func(t *testing.T, e *testEnv) {
		mut := func(c *Config) { c.SVCkptEvery, c.FlushDeadline = 2, svckptForever }
		s1 := e.start("msp1", svckptDef(), mut)
		s2 := e.start("msp2", counterDef(), mut)
		sv := s1.sharedVar("total")
		cli := newIntraCaller(t, e)
		onMSP2 := dv.Vector{{Process: "msp2", Epoch: s2.Epoch()}: 0}

		cli.call("msp1", "dep#1", "bump", nil, onMSP2)
		e.net.Partition([]simnet.Addr{"msp1", "peer-cli"}, []simnet.Addr{"msp2"})
		if rep := cli.call("msp1", "dep#1", "bump", nil, nil); asU64(rep.Payload) != 2 {
			t.Fatalf("the write that reached the threshold returned %d, want 2", asU64(rep.Payload))
		}
		if n := s1.stats.SVCkpts.Load(); n != 0 {
			t.Fatalf("%d checkpoints landed with the value's dependency unreachable", n)
		}

		e.net.Heal()
		sid := dv.StateID{Epoch: s2.Epoch(), LSN: 0}
		waitFor(t, 10*time.Second, "msp2 to be reachable again", func() bool { return s1.flushPeer("msp2", sid) == nil })
		// The checkpoint either outlasted the partition and lands now, or
		// gave up (scale 0) and this write schedules it again.
		cli.call("msp1", "dep#1", "bump", nil, nil)
		waitFor(t, 10*time.Second, "the checkpoint after Heal", func() bool { return s1.stats.SVCkpts.Load() > 0 })
		waitFor(t, 10*time.Second, "no checkpoint to be queued", func() bool {
			_, _, queued, _ := svState(sv)
			return !queued
		})
		if _, since, _, _ := svState(sv); s1.stats.SVCkpts.Load() != 1 || since >= 2 {
			t.Fatalf("after Heal: %d checkpoints, %d writes since the last; want exactly 1 and fewer than 2", s1.stats.SVCkpts.Load(), since)
		}
	})
}

// TestSVCheckpointSingleFlight: while a scheduled checkpoint has not won
// the variable's lock, further writes over the threshold schedule nothing;
// the one checkpoint records whatever value is current when it runs. The
// flush runs under the lock, so the only window in which writes land with a
// checkpoint queued is the one before it takes the lock: the test pins
// that window by holding the lock itself and performing the write action
// of 8 idle sessions directly.
func TestSVCheckpointSingleFlight(t *testing.T) {
	const every, sessions, extra = 4, 8, 200
	atEveryWidth(t, func(t *testing.T, e *testEnv) {
		s1 := e.start("msp1", svckptDef(), func(c *Config) { c.SVCkptEvery = every })
		sv := s1.sharedVar("total")
		var writers []*Session
		for i := 0; i < sessions; i++ {
			cs := e.endClient().Session("msp1")
			mustCall(t, cs, "peek", nil)
			writers = append(writers, s1.sessions.get(cs.id))
		}

		sv.mu.Lock()
		for i := 1; i <= every+extra; i++ {
			if err := sv.writeLocked(writers[i%sessions], u64(uint64(i))); err != nil {
				sv.mu.Unlock()
				t.Fatal(err)
			}
		}
		queued, since, scheduled := sv.ckptQueued, sv.writesSince, goroutinesIn("(*Server).goBackground.func1")
		sv.mu.Unlock()
		if !queued || since != every+extra || scheduled != 1 {
			t.Fatalf("after %d writes over the threshold: queued=%v, writesSince=%d, %d background goroutines; want true, %d, 1",
				extra, queued, since, scheduled, every+extra)
		}

		waitFor(t, 10*time.Second, "the one checkpoint", func() bool { return s1.stats.SVCkpts.Load() > 0 })
		value, since, queued, _ := svState(sv)
		if n := s1.stats.SVCkpts.Load(); n != 1 || since != 0 || queued || value != every+extra {
			t.Fatalf("%d checkpoints, writesSince=%d, queued=%v, value=%d; want 1, 0, false, %d", n, since, queued, value, every+extra)
		}
		if got := lastCheckpointValue(t, s1, sv); got != every+extra {
			t.Fatalf("the checkpoint recorded %d, want the value current when it ran, %d", got, every+extra)
		}
	})
}

// TestCrashWithSVCheckpointInFlight: Crash returns while a checkpoint is
// blocked in its distributed flush, no goroutine of the dead incarnation
// is left to append or charge the disk, and the next incarnation finds the
// last durable value through the intact backward chain.
func TestCrashWithSVCheckpointInFlight(t *testing.T) {
	atEveryWidth(t, func(t *testing.T, e *testEnv) {
		mut := func(c *Config) { c.SVCkptEvery, c.FlushDeadline = 2, svckptForever }
		s1 := e.start("msp1", svckptDef(), mut)
		s2 := e.start("msp2", counterDef(), mut)
		cli := newIntraCaller(t, e)
		onMSP2 := dv.Vector{{Process: "msp2", Epoch: s2.Epoch()}: 0}

		cli.call("msp1", "dep#1", "bump", nil, onMSP2)
		e.net.Partition([]simnet.Addr{"msp1", "peer-cli"}, []simnet.Addr{"msp2"})
		flushes := s1.stats.DistFlushes.Load()
		cli.call("msp1", "dep#1", "bump", nil, nil) // total = 2, acknowledged; its checkpoint cannot finish
		waitFor(t, 10*time.Second, "the checkpoint to enter its flush", func() bool { return s1.stats.DistFlushes.Load() > flushes })
		if err := s1.log.Flush(s1.log.Next()); err != nil { // an intra-domain acknowledgement promises no durability; make the write durable
			t.Fatal(err)
		}

		crashed := make(chan struct{})
		go func() { s1.Crash(); close(crashed) }()
		select {
		case <-crashed:
		case <-time.After(10 * time.Second):
			t.Fatal("Crash did not return with a shared-variable checkpoint in flight")
		}
		writes := e.disks["msp1"].Stats().Writes
		e.net.Heal() // a leaked checkpoint could now finish its flush and append
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		if n := goroutinesIn("(*SharedVar).checkpoint"); n != 0 {
			t.Fatalf("%d checkpoint goroutines of the crashed MSP survive Crash", n)
		}
		if now := e.disks["msp1"].Stats().Writes; now != writes || s1.stats.SVCkpts.Load() != 0 {
			t.Fatalf("after Crash: disk writes %d → %d, %d checkpoints; the dead incarnation is still working", writes, now, s1.stats.SVCkpts.Load())
		}

		s1 = e.start("msp1", svckptDef())
		if _, _, _, lastCkpt := svState(s1.sharedVar("total")); lastCkpt != 0 {
			t.Fatalf("the restarted MSP found a checkpoint record at %d; none was acknowledged", lastCkpt)
		}
		if got := asU64(mustCall(t, e.endClient().Session("msp1"), "peek", nil)); got != 2 {
			t.Fatalf("total after restart = %d, want 2", got)
		}
	})
}

// TestSVCheckpointOfOrphanValueRollsBackFirst: the value turns orphan —
// the peer it depends on crashes without having flushed, and its recovery
// broadcast arrives — while the value's checkpoint waits for the variable's
// lock. The record that lands carries the rolled-back value.
func TestSVCheckpointOfOrphanValueRollsBackFirst(t *testing.T) {
	atEveryWidth(t, func(t *testing.T, e *testEnv) {
		mut := func(c *Config) { c.SVCkptEvery = 2 }
		s1 := e.start("msp1", svckptDef(), mut)
		e.start("msp2", counterDef(), mut)
		sv := s1.sharedVar("total")
		cli := newIntraCaller(t, e)

		// The test starts the checkpoint goroutine itself, at the moment it
		// chooses: writes meanwhile see one already queued.
		sv.mu.Lock()
		sv.ckptQueued = true
		sv.mu.Unlock()

		cli.call("msp1", "clean#1", "bump", nil, nil) // total = 1, no foreign dependency
		// msp2's reply to an intra-domain request names state it has not
		// flushed; the session that receives it writes total = 2.
		unflushed := cli.call("msp2", "src#1", "inc", nil, nil).DV
		cli.call("msp1", "dep#1", "bump", nil, unflushed)

		sv.mu.Lock()
		if !s1.goBackground(func() { sv.checkpoint(false) }) {
			t.Fatal("goBackground refused on a running server")
		}
		e.restart("msp2")
		waitFor(t, 10*time.Second, "msp2's recovery broadcast", func() bool {
			_, orphan := s1.know.OrphanIn(unflushed)
			return orphan
		})
		sv.mu.Unlock()

		waitFor(t, 10*time.Second, "the checkpoint", func() bool { return s1.stats.SVCkpts.Load() > 0 })
		if got := lastCheckpointValue(t, s1, sv); got != 1 {
			t.Fatalf("the checkpoint recorded %d, want the rolled-back value 1", got)
		}
		if value, since, _, _ := svState(sv); value != 1 || since != 0 || s1.stats.SVRollbacks.Load() != 1 {
			t.Fatalf("value=%d, writesSince=%d, %d rollbacks; want 1, 0, 1", value, since, s1.stats.SVRollbacks.Load())
		}
	})
}

// TestSVCheckpointAfterRestartRecordsRealValue: a checkpoint forced right
// after a restart records the value the analysis scan restored, and a
// blind write that is the variable's first post-crash access and reaches
// the threshold checkpoints the value written. Neither records the
// variable's initial zero value.
func TestSVCheckpointAfterRestartRecordsRealValue(t *testing.T) {
	atEveryWidth(t, func(t *testing.T, e *testEnv) {
		s1 := e.start("msp1", svckptDef(), func(c *Config) { c.SVCkptEvery, c.noRecoverySweep = 2, true })
		mustCall(t, e.endClient().Session("msp1"), "set", u64(7)) // acknowledged to an end client: durable

		s1 = e.restart("msp1")
		sv := s1.sharedVar("total")
		sv.checkpoint(true)
		if got := lastCheckpointValue(t, s1, sv); s1.stats.SVCkpts.Load() != 1 || got != 7 {
			t.Fatalf("forced checkpoint after restart: %d checkpoints, recorded %d, want 1 and 7", s1.stats.SVCkpts.Load(), got)
		}

		mustCall(t, e.endClient().Session("msp1"), "set", u64(8))
		s1 = e.restart("msp1")
		sv = s1.sharedVar("total")
		if _, since, _, _ := svState(sv); since != 1 {
			t.Fatalf("after restart: writesSince=%d, want 1", since)
		}
		mustCall(t, e.endClient().Session("msp1"), "set", u64(9)) // blind: nothing read the variable first
		waitFor(t, 10*time.Second, "the checkpoint of the blind write", func() bool { return s1.stats.SVCkpts.Load() > 0 })
		if got := lastCheckpointValue(t, s1, sv); got != 9 {
			t.Fatalf("the checkpoint after a blind write recorded %d, want 9", got)
		}
	})
}
