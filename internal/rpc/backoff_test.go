package rpc

import (
	"runtime"
	"testing"
	"time"
)

// busySleeps runs one Exchange of session/seq against a server that
// answers Busy sheds times and then OK, and returns the sleeps it chose.
func busySleeps(t *testing.T, o CallOptions, session string, seq uint64, sheds int) []time.Duration {
	t.Helper()
	var slept []time.Duration
	defer func(prev func(time.Duration)) { sleep = prev }(sleep)
	sleep = func(d time.Duration) { slept = append(slept, d) }
	replies := make(chan Reply, 4)
	n := 0
	send := func(r Request) {
		n++
		st := StatusBusy
		if n > sheds {
			st = StatusOK
		}
		replies <- Reply{Session: r.Session, Seq: r.Seq, Status: st}
	}
	if _, err := Exchange(send, replies, nil, Request{Session: session, Seq: seq}, o); err != nil {
		t.Fatal(err)
	}
	return slept
}

// checkSleeps compares chosen sleeps with recorded nanosecond values: the
// jitter sequence of a given Seed and call identity must not move. The
// jittered values were recorded from the PCG generator.
func checkSleeps(t *testing.T, got []time.Duration, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("slept %v, want %d sleeps", got, len(want))
	}
	for i, w := range want {
		if got[i] != time.Duration(w) {
			t.Fatalf("sleep %d = %v, want %v (all: %v)", i, got[i], time.Duration(w), got)
		}
	}
}

// The default options reproduce the paper's fixed 100 ms backoff: no
// growth, no jitter, regardless of the busy streak.
func TestDefaultBusyBackoffIsFixed(t *testing.T) {
	checkSleeps(t, busySleeps(t, DefaultCallOptions(1.0), "s", 1, 6),
		100e6, 100e6, 100e6, 100e6, 100e6, 100e6)
}

func TestBusyBackoffDoublesToCap(t *testing.T) {
	o := DefaultCallOptions(1.0)
	o.BusyBackoffMax = 800 * time.Millisecond
	checkSleeps(t, busySleeps(t, o, "s", 1, 6), 100e6, 200e6, 400e6, 800e6, 800e6, 800e6)
}

func TestBusyJitterBoundedAndSeeded(t *testing.T) {
	o := BackoffCallOptions(1.0, 42)
	sess := busySleeps(t, o, "sess", 7, 8)
	checkSleeps(t, sess, 110539701, 195370574, 446662736, 657112898, 836230774, 882032454, 824646285, 906978316)
	// A different session draws a different sequence.
	other := busySleeps(t, o, "other", 7, 8)
	checkSleeps(t, other, 85640542, 225647457, 373637375, 871825748, 918519660, 816419631, 780510574, 708298358)
	// Each sleep is within ±20 % of 100 ms doubling to 800 ms.
	for _, got := range [][]time.Duration{sess, other} {
		nominal := 100 * time.Millisecond
		for i, d := range got {
			if d < nominal*8/10 || d > nominal*12/10 {
				t.Fatalf("sleep %d = %v, outside ±20%% of %v", i, d, nominal)
			}
			nominal = min(2*nominal, 800*time.Millisecond)
		}
	}
	// At TimeScale 0 every sleep is the 1 ms floor.
	checkSleeps(t, busySleeps(t, BackoffCallOptions(0, 42), "sess", 7, 3), 1e6, 1e6, 1e6)
}

// A lost reply ends a shed streak: the next shed backs off from the base.
func TestBusyStreakResetsOnTimeout(t *testing.T) {
	o := DefaultCallOptions(1.0)
	o.ResendAfter = 50 * time.Millisecond
	o.BusyBackoffMax = 800 * time.Millisecond
	var slept []time.Duration
	defer func(prev func(time.Duration)) { sleep = prev }(sleep)
	sleep = func(d time.Duration) { slept = append(slept, d) }
	replies := make(chan Reply, 4)
	n := 0
	send := func(r Request) {
		n++
		switch n {
		case 3: // lost
		case 5:
			replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusOK}
		default:
			replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusBusy}
		}
	}
	if _, err := Exchange(send, replies, nil, Request{Session: "s", Seq: 1}, o); err != nil {
		t.Fatal(err)
	}
	checkSleeps(t, slept, 100e6, 200e6, 100e6)
}

// A call that never sheds never builds a Backoff, a Backoff without
// jitter builds no random source, and a jittered one seeds a source of a
// few words, not a table: every control call and first shed builds one.
func TestBackoffWithoutJitterBuildsNoSource(t *testing.T) {
	var keep *Backoff
	plain := testing.AllocsPerRun(100, func() { keep = NewBackoff(time.Millisecond, 0, 0, 1) })
	jittered := testing.AllocsPerRun(100, func() { keep = NewBackoff(time.Millisecond, 0, 0.2, 1) })
	if plain > 1 || jittered <= plain {
		t.Fatalf("NewBackoff allocates %v times without jitter, %v with; want at most the Backoff itself without", plain, jittered)
	}
	if keep.rng == nil || NewBackoff(time.Millisecond, 0, 0, 1).rng != nil {
		t.Fatal("only a jittered Backoff has a random source")
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		keep = NewBackoff(time.Millisecond, 0, 0.2, int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 100 {
		t.Fatalf("a jittered NewBackoff allocates %d bytes, want under 100", per)
	}
}

func TestBusyBackoffThroughCall(t *testing.T) {
	o := DefaultCallOptions(0) // TimeScale 0: Scaled() floors at 1ms
	o.BusyBackoffMax = 800 * time.Millisecond
	replies := make(chan Reply, 8)
	sends := 0
	send := func(req Request) {
		sends++
		st := StatusBusy
		if sends == 4 {
			st = StatusOK
		}
		replies <- Reply{Session: req.Session, Seq: req.Seq, Status: st}
	}
	req := Request{Session: "s", Seq: 1}
	if _, err := Call(send, replies, req, o); err != nil {
		t.Fatalf("Call after three busy replies: %v", err)
	}
	if sends != 4 {
		t.Fatalf("sent %d times, want 4: three busy replies, then OK", sends)
	}
}

func TestBackoffDoublesToCapNoJitter(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 0, 1)
	wants := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range wants {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("Next #%d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("after Reset Next = %v, want 10ms", got)
	}
}

func TestBackoffJitterBoundedAndSeeded(t *testing.T) {
	b1 := NewBackoff(10*time.Millisecond, 160*time.Millisecond, 0.2, 7)
	b2 := NewBackoff(10*time.Millisecond, 160*time.Millisecond, 0.2, 7)
	base := 10 * time.Millisecond
	for i := 0; i < 8; i++ {
		d1, d2 := b1.Next(), b2.Next()
		if d1 != d2 {
			t.Fatalf("same seed diverged at #%d: %v vs %v", i, d1, d2)
		}
		nominal := base
		for j := 0; j < i && nominal < 160*time.Millisecond; j++ {
			nominal *= 2
		}
		if nominal > 160*time.Millisecond {
			nominal = 160 * time.Millisecond
		}
		lo := time.Duration(float64(nominal) * 0.8)
		hi := time.Duration(float64(nominal) * 1.2)
		if d1 < lo || d1 > hi {
			t.Fatalf("jitter #%d out of bounds: %v not in [%v, %v]", i, d1, lo, hi)
		}
	}
}
