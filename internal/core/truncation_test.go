package core

import (
	"testing"
)

// TestLogHeadAdvancesUnderCheckpointing runs enough requests through an
// aggressively checkpointing MSP that the fuzzy checkpoints advance the
// log head and discard dead records, then verifies crash recovery still
// restores everything.
func TestLogHeadAdvancesUnderCheckpointing(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	mut := func(c *Config) {
		c.SessionCkptThreshold = 2 << 10
		c.SVCkptEvery = 4
		c.MSPCkptEvery = 4 << 10
		c.ForceCkptAfter = 2
		c.WalSegmentSize = 4 << 10
	}
	e.start("msp1", counterDef(), mut)
	cs := e.endClient().Session("msp1")
	for i := 1; i <= 200; i++ {
		mustCall(t, cs, "inc", nil)
		mustCall(t, cs, "sharedInc", nil)
	}
	srv := e.srvs["msp1"]
	if srv.log.Head() <= 512 {
		t.Fatalf("log head never advanced: %d", srv.log.Head())
	}
	// Truncation must have deleted whole segments: the first live segment
	// starts well past the log's origin.
	segs := srv.log.Segments()
	if len(segs) == 0 || segs[0].Base <= 512 {
		t.Fatalf("no log segments were reclaimed (first live segment %+v)", segs)
	}

	// Crash and recover from a truncated log.
	e.restart("msp1")
	if got := asU64(mustCall(t, cs, "inc", nil)); got != 201 {
		t.Fatalf("after recovery from truncated log inc = %d, want 201", got)
	}
	cs2 := e.endClient().Session("msp1")
	if got := asU64(mustCall(t, cs2, "sharedGet", nil)); got != 200 {
		t.Fatalf("shared total after recovery = %d, want 200", got)
	}
}

// TestLogBoundedBySteadyCheckpointing verifies the log's live region
// stays bounded: with periodic checkpoints the head tracks the tail.
func TestLogBoundedBySteadyCheckpointing(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef(), func(c *Config) {
		c.SessionCkptThreshold = 1 << 10
		c.SVCkptEvery = 4
		c.MSPCkptEvery = 2 << 10
		c.ForceCkptAfter = 1
	})
	cs := e.endClient().Session("msp1")
	srv := e.srvs["msp1"]
	var maxLive int64
	for i := 1; i <= 600; i++ {
		mustCall(t, cs, "sharedInc", nil)
		if live := int64(srv.log.Durable() - srv.log.Head()); live > maxLive {
			maxLive = live
		}
	}
	// Live region must stay small relative to the ~75 KB total log.
	if maxLive > 64<<10 {
		t.Fatalf("live log region grew to %d bytes despite checkpointing", maxLive)
	}
	if total := srv.log.Durable(); total < 64<<10 {
		t.Fatalf("test wrote too little log (%d bytes) to be meaningful", total)
	}
}

// TestTruncationSafeWithIdleSession: an idle session must hold the log
// head back only until it is force-checkpointed, and recovery must still
// restore it afterwards.
func TestTruncationSafeWithIdleSession(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", counterDef(), func(c *Config) {
		c.SessionCkptThreshold = 1 << 10
		c.MSPCkptEvery = 2 << 10
		c.ForceCkptAfter = 2
	})
	c := e.endClient()
	idle := c.Session("msp1")
	for i := 0; i < 3; i++ {
		mustCall(t, idle, "inc", nil)
	}
	busy := c.Session("msp1")
	for i := 0; i < 300; i++ {
		mustCall(t, busy, "inc", nil)
	}
	e.restart("msp1")
	if got := asU64(mustCall(t, idle, "inc", nil)); got != 4 {
		t.Fatalf("idle session after truncated recovery = %d, want 4", got)
	}
	if got := asU64(mustCall(t, busy, "inc", nil)); got != 301 {
		t.Fatalf("busy session after truncated recovery = %d, want 301", got)
	}
}
