package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mspr/internal/wal"
)

func newTestStream() *posStream {
	return &posStream{budget: &retention{limit: 1 << 20}}
}

// lsns returns the stream's positions.
func lsns(p *posStream) []wal.LSN {
	var out []wal.LSN
	for _, e := range p.snapshot() {
		out = append(out, e.lsn)
	}
	return out
}

func TestPosStreamAppendSnapshot(t *testing.T) {
	p := newTestStream()
	for i := 1; i <= 10; i++ {
		p.append(posEntry{lsn: wal.LSN(i * 100)})
	}
	snap := lsns(p)
	if len(snap) != 10 || snap[0] != 100 || snap[9] != 1000 {
		t.Fatalf("snapshot = %v", snap)
	}
	if p.length() != 10 {
		t.Fatalf("length = %d", p.length())
	}
	// Snapshot is a copy.
	p.snapshot()[0].lsn = 999999
	if lsns(p)[0] != 100 {
		t.Fatal("snapshot aliases internal storage")
	}
}

func TestPosStreamTruncateAll(t *testing.T) {
	p := newTestStream()
	for i := 0; i < 500; i++ {
		p.append(posEntry{lsn: wal.LSN(i)})
	}
	p.truncateAll()
	if p.length() != 0 {
		t.Fatalf("after truncateAll: len=%d", p.length())
	}
}

func TestPosStreamTruncateFrom(t *testing.T) {
	p := newTestStream()
	for i := 1; i <= 10; i++ {
		p.append(posEntry{lsn: wal.LSN(i * 10)})
	}
	p.truncateFrom(55) // removes 60..100
	snap := lsns(p)
	if len(snap) != 5 || snap[4] != 50 {
		t.Fatalf("truncateFrom(55) left %v", snap)
	}
	p.truncateFrom(10) // removes everything
	if p.length() != 0 {
		t.Fatalf("truncateFrom(10) left %v", lsns(p))
	}
}

func TestPosStreamRemoveRange(t *testing.T) {
	p := newTestStream()
	for i := 1; i <= 10; i++ {
		p.append(posEntry{lsn: wal.LSN(i * 10)})
	}
	p.removeRange(30, 70) // removes 30,40,50,60,70
	snap := lsns(p)
	want := []wal.LSN{10, 20, 80, 90, 100}
	if len(snap) != len(want) {
		t.Fatalf("removeRange left %v", snap)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("removeRange left %v, want %v", snap, want)
		}
	}
}

// TestPosStreamPropertyVsReference compares the stream against a plain
// slice implementation under random operation sequences.
func TestPosStreamPropertyVsReference(t *testing.T) {
	prop := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newTestStream()
		var ref []wal.LSN
		next := wal.LSN(1)
		for _, op := range ops {
			switch op % 5 {
			case 0, 1, 2: // append (keep LSNs increasing, as real logs do)
				next += wal.LSN(rng.Intn(100) + 1)
				p.append(posEntry{lsn: next})
				ref = append(ref, next)
			case 3: // truncateFrom a random point
				if len(ref) == 0 {
					continue
				}
				cut := ref[rng.Intn(len(ref))]
				p.truncateFrom(cut)
				i := len(ref)
				for i > 0 && ref[i-1] >= cut {
					i--
				}
				ref = ref[:i]
			case 4: // removeRange over a random window
				if len(ref) == 0 {
					continue
				}
				a := ref[rng.Intn(len(ref))]
				b := a + wal.LSN(rng.Intn(200))
				p.removeRange(a, b)
				kept := ref[:0]
				for _, l := range ref {
					if l < a || l > b {
						kept = append(kept, l)
					}
				}
				ref = kept
			}
		}
		snap := lsns(p)
		if len(snap) != len(ref) {
			return false
		}
		for i := range ref {
			if snap[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPositionStreamsChargeNoDiskWrite pins that a session's position
// stream costs no log-disk write: with session checkpoints off the stream
// grows by a record a request, to over 600 entries, and each request
// still writes exactly once, its reply flush.
func TestPositionStreamsChargeNoDiskWrite(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("m", counterDef(), func(cfg *Config) { cfg.SessionCkptThreshold = 0 })
	cs := e.endClient().Session("m")
	mustCall(t, cs, "inc", nil) // session start
	before := e.disks["m"].Stats().Writes
	const calls = 600
	for i := 0; i < calls; i++ {
		mustCall(t, cs, "inc", nil)
	}
	if got := e.disks["m"].Stats().Writes - before; got != calls {
		t.Fatalf("%d requests made %d log-disk writes, want one reply flush each", calls, got)
	}
}
