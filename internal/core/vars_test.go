package core

import (
	"bytes"
	"runtime"
	"testing"

	"mspr/internal/dv"
	"mspr/internal/logrec"
)

// Session variables and shared variables are overwritten in place: the
// stored buffer never leaves its lock, so every way out copies and every
// way in copies. The tests below pin that contract from both sides.

// varsDef serves a session variable "v" and the shared variable "total".
func varsDef() Definition {
	return Definition{
		Methods: map[string]Handler{
			// set stores arg, then scribbles over the slice it passed in.
			"set": func(ctx *Ctx, arg []byte) ([]byte, error) {
				buf := append([]byte(nil), arg...)
				ctx.SetVar("v", buf)
				for i := range buf {
					buf[i] ^= 0xFF
				}
				return nil, nil
			},
			"get": func(ctx *Ctx, _ []byte) ([]byte, error) {
				return ctx.GetVar("v"), nil
			},
			// getThenSet returns what GetVar gave it before a same-length
			// SetVar of arg.
			"getThenSet": func(ctx *Ctx, arg []byte) ([]byte, error) {
				old := ctx.GetVar("v")
				ctx.SetVar("v", arg)
				return old, nil
			},
			// readThenWrite returns what ReadShared gave it before a
			// same-length WriteShared of arg.
			"readThenWrite": func(ctx *Ctx, arg []byte) ([]byte, error) {
				old, err := ctx.ReadShared("total")
				if err != nil {
					return nil, err
				}
				return old, ctx.WriteShared("total", arg)
			},
		},
		Shared: []SharedDef{{Name: "total", Initial: []byte("initial!")}},
	}
}

func TestSetVarCopiesIn(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", varsDef())
	cs := e.endClient().Session("msp1")
	mustCall(t, cs, "set", []byte("abcdefgh"))
	if got := mustCall(t, cs, "get", nil); string(got) != "abcdefgh" {
		t.Fatalf("after the caller scribbled over its slice GetVar = %q, want %q", got, "abcdefgh")
	}
	if old := mustCall(t, cs, "getThenSet", []byte("ABCDEFGH")); string(old) != "abcdefgh" {
		t.Fatalf("a GetVar result read %q after a same-length SetVar, want %q", old, "abcdefgh")
	}
}

func TestSetVarGrowsAndShrinks(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", varsDef())
	cs := e.endClient().Session("msp1")
	for _, v := range [][]byte{[]byte("12345678"), bytes.Repeat([]byte("x"), 100), []byte("abc"), {}, []byte("12345678")} {
		mustCall(t, cs, "set", v)
		if got := mustCall(t, cs, "get", nil); !bytes.Equal(got, v) {
			t.Fatalf("after SetVar(%q) GetVar = %q", v, got)
		}
	}
}

// A session checkpoint record built before an in-place overwrite keeps the
// bytes it was built from.
func TestCheckpointRecordSurvivesOverwrite(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	s1 := e.start("msp1", varsDef())
	cs := e.endClient().Session("msp1")
	mustCall(t, cs, "set", []byte("old bytes"))
	rec := s1.sessions.get(cs.id).checkpointRecord()
	mustCall(t, cs, "set", []byte("new bytes"))
	got, err := logrec.DecodeSessionCheckpoint(rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Vars["v"]) != "old bytes" {
		t.Fatalf("the checkpoint built before the overwrite decodes to %q, want %q", got.Vars["v"], "old bytes")
	}
}

func TestReadSharedCopiesOut(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", varsDef())
	cs := e.endClient().Session("msp1")
	if old := mustCall(t, cs, "readThenWrite", []byte("written1")); string(old) != "initial!" {
		t.Fatalf("a ReadShared result read %q after a same-length WriteShared, want %q", old, "initial!")
	}
	if old := mustCall(t, cs, "readThenWrite", []byte("written2")); string(old) != "written1" {
		t.Fatalf("a ReadShared result read %q after a same-length WriteShared, want %q", old, "written1")
	}
}

// A variable whose every write is an orphan rolls back to its declared
// initial value, and in-place writes after that rollback do not write
// through to the initial value: the second rollback still reads Initial.
func TestRollbackToInitialAfterInPlaceWrites(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	s1 := e.start("msp1", varsDef())
	cs := e.endClient().Session("msp1")
	mustCall(t, cs, "get", nil)
	sess := s1.sessions.get(cs.id)
	sess.mergeVec(dv.Vector{{Process: "ghost", Epoch: 1}: 100})
	s1.know.Record(dv.RecoveryInfo{Process: "ghost", CrashedEpoch: 1, Recovered: 50})
	sv := s1.sharedVar("total")
	for round := 0; round < 2; round++ {
		sv.mu.Lock()
		for _, v := range []string{"aaaaaaaa", "bbbbbbbb", "cccccccc"} {
			if err := sv.writeLocked(sess, []byte(v)); err != nil {
				sv.mu.Unlock()
				t.Fatal(err)
			}
		}
		sv.mu.Unlock()
		got, err := sv.read(sess)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "initial!" || string(sv.initial) != "initial!" {
			t.Fatalf("round %d: rolled back to %q (initial %q), want %q", round, got, sv.initial, "initial!")
		}
	}
}

// TestSessionStateRequestAllocs guards the request path's garbage: a
// method that reads an 8 KB session variable, flips a byte and writes it
// back costs its GetVar copy, not a second copy in SetVar.
func TestSessionStateRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	def := Definition{Methods: map[string]Handler{
		"flip": func(ctx *Ctx, _ []byte) ([]byte, error) {
			v := ctx.GetVar("state")
			if v == nil {
				v = make([]byte, 8<<10)
			}
			v[ctx.RequestSeq()%uint64(len(v))] ^= 1
			ctx.SetVar("state", v)
			return nil, nil
		},
	}}
	e := newTestEnv(t)
	defer e.cleanup()
	e.start("msp1", def)
	cs := e.endClient().Session("msp1")
	call := func() {
		if _, err := cs.Call("flip", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		call()
	}
	const requests = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%d bytes per request", per)
	if per >= 12<<10 {
		t.Fatalf("a request allocates %d bytes, want under %d", per, 12<<10)
	}
}
