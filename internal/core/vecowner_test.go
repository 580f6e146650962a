package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// Each recovery unit owns its dependency vector (§3.1): dv.Vector is a
// map and Merge writes into its receiver, so a unit that stored another's
// map instead of merging a copy would write its own later dependencies
// into the other's vector, and the orphan test would see dependencies
// the other unit never had. The tests below make a session gain a
// dependency on state a peer then loses, right after its vector met
// another unit's, and check that the other unit is not made an orphan.

// holdHook parks the first handler that reaches it until released.
type holdHook struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newHoldHook() *holdHook {
	h := &holdHook{entered: make(chan struct{}), release: make(chan struct{})}
	h.armed.Store(true)
	return h
}

func (h *holdHook) park() {
	if h.armed.CompareAndSwap(true, false) {
		h.entered <- struct{}{}
		<-h.release
	}
}

// awaitCall waits for a call started in the background, bounded like
// mustCall.
func awaitCall(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(callBound):
		t.Fatalf("%s: no reply within %v", what, callBound)
	}
}

// A session whose vector is empty reads a shared variable, then calls
// msp2, and msp2 crashes before it flushed the state its reply carried.
// The reader becomes an orphan and is rolled back; the variable, whose
// value depends on nothing msp2 lost, must keep its value without a
// rollback.
func TestSharedReadKeepsVariableVector(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	hook := newHoldHook()
	def1 := Definition{
		Methods: map[string]Handler{
			"write": func(ctx *Ctx, arg []byte) ([]byte, error) { return nil, ctx.WriteShared("sv", u64(7)) },
			"get":   func(ctx *Ctx, arg []byte) ([]byte, error) { return ctx.ReadShared("sv") },
			"readThenCall": func(ctx *Ctx, arg []byte) ([]byte, error) {
				if _, err := ctx.ReadShared("sv"); err != nil {
					return nil, err
				}
				out, err := ctx.Call("msp2", "inc", nil)
				if err != nil {
					return nil, err
				}
				hook.park()
				return out, nil
			},
		},
		Shared: []SharedDef{{Name: "sv", Initial: u64(0)}},
	}
	e.start("msp2", counterDef())
	srv1 := e.start("msp1", def1)
	c := e.endClient()
	mustCall(t, c.Session("msp1"), "write", nil)

	done := make(chan error, 1)
	go func() {
		_, err := c.Session("msp1").Call("readThenCall", nil)
		done <- err
	}()
	<-hook.entered
	e.restart("msp2")
	close(hook.release)
	awaitCall(t, done, "readThenCall")

	if srv1.stats.OrphanRecoveries.Load() == 0 {
		t.Fatal("the reader was not rolled back: msp2's crash cost it nothing, so the test shows nothing")
	}
	if got := asU64(mustCall(t, c.Session("msp1"), "get", nil)); got != 7 {
		t.Fatalf("sv = %d after the reader's rollback, want 7", got)
	}
	if n := srv1.stats.SVRollbacks.Load(); n != 0 {
		t.Fatalf("sv was rolled back %d times: it took on the reader's dependency on msp2", n)
	}
}

// msp1 calls msp2 with its session's vector attached; msp2's new session
// writes and reads a shared variable, which adds msp2's own state to its
// vector, and msp2 crashes before it replies. msp1 resends the same
// request, vector and all, to msp2's next incarnation, which must execute
// it: the resend's vector is the one msp1 attached, with no dependency on
// the state msp2 lost. Had msp2's session taken the attached map as its
// own, the resend would name that state, and msp2 would drop it as an
// orphan on every resend.
func TestCalleeKeepsRequestVectorOwn(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	hook := newHoldHook()
	def1 := Definition{
		Methods: map[string]Handler{
			"call": func(ctx *Ctx, arg []byte) ([]byte, error) { return ctx.Call("msp2", "writeRead", nil) },
		},
	}
	def2 := Definition{
		Methods: map[string]Handler{
			"writeRead": func(ctx *Ctx, arg []byte) ([]byte, error) {
				if err := ctx.WriteShared("sv2", u64(1)); err != nil {
					return nil, err
				}
				if _, err := ctx.ReadShared("sv2"); err != nil {
					return nil, err
				}
				hook.park()
				// A second read is an interception point: on the halted
				// incarnation its append fails, so no reply escapes.
				return ctx.ReadShared("sv2")
			},
		},
		Shared: []SharedDef{{Name: "sv2", Initial: u64(0)}},
	}
	e.start("msp1", def1)
	srv2 := e.start("msp2", def2)

	done := make(chan error, 1)
	go func() {
		_, err := e.endClient().Session("msp1").Call("call", nil)
		done <- err
	}()
	<-hook.entered
	srv2.halt() // the handler's state dies unflushed
	close(hook.release)
	e.restart("msp2")
	awaitCall(t, done, "call through a crashed callee")
}
