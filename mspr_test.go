// Tests of the public API facade: everything a downstream user would do
// — define services, start servers, crash and restart them — exercised
// through package mspr only.
package mspr_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mspr"
)

func kvService() mspr.Definition {
	return mspr.Definition{
		Methods: map[string]mspr.Handler{
			"put": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				i := bytes.IndexByte(arg, '=')
				if i < 0 {
					return nil, errors.New("want key=value")
				}
				ctx.SetVar(string(arg[:i]), arg[i+1:])
				return []byte("ok"), nil
			},
			"get": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				return ctx.GetVar(string(arg)), nil
			},
			"publish": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				return nil, ctx.WriteShared("board", arg)
			},
			"board": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				return ctx.ReadShared("board")
			},
		},
		Shared: []mspr.SharedDef{{Name: "board", Initial: []byte("empty")}},
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	sim := mspr.NewSim(0)
	dom := sim.NewDomain("t")
	cfg := sim.NewConfig("kv", dom, kvService())
	srv, err := mspr.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Crash()
	client := sim.NewClient("c")
	defer client.Close()
	sess := client.Session("kv")
	if _, err := sess.Call("put", []byte("name=gopher")); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Call("get", []byte("name"))
	if err != nil || string(got) != "gopher" {
		t.Fatalf("get = (%q, %v)", got, err)
	}
}

// callBound is how long boundedCall waits for a reply. Healthy, the whole
// crash-recovery test takes some 10 ms under -race; a call still out after
// 30 s is stuck — the client resending to a server that never answers —
// and fails the test by name instead of hanging until go test's timeout.
const callBound = 30 * time.Second

// boundedCall is sess.Call with a watchdog: it fails t, naming the
// method, when no reply came within callBound.
func boundedCall(t *testing.T, sess *mspr.ClientSession, method string, arg []byte) ([]byte, error) {
	t.Helper()
	type reply struct {
		out []byte
		err error
	}
	done := make(chan reply, 1)
	go func() {
		out, err := sess.Call(method, arg)
		done <- reply{out, err}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-time.After(callBound):
		t.Fatalf("call %s: no reply within %v", method, callBound)
		return nil, nil
	}
}

func TestPublicAPICrashRecovery(t *testing.T) {
	sim := mspr.NewSim(0)
	dom := sim.NewDomain("t")
	cfg := sim.NewConfig("kv", dom, kvService())
	srv, err := mspr.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client := sim.NewClient("c")
	defer client.Close()
	sess := client.Session("kv")
	if _, err := boundedCall(t, sess, "put", []byte("k=v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := boundedCall(t, sess, "publish", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	srv, err = mspr.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Crash()
	got, err := boundedCall(t, sess, "get", []byte("k"))
	if err != nil || string(got) != "v1" {
		t.Fatalf("session state after crash = (%q, %v)", got, err)
	}
	board, err := boundedCall(t, sess, "board", nil)
	if err != nil || string(board) != "hello" {
		t.Fatalf("shared state after crash = (%q, %v)", board, err)
	}
}

func TestPublicAPIAppError(t *testing.T) {
	sim := mspr.NewSim(0)
	dom := sim.NewDomain("t")
	srv, err := mspr.Start(sim.NewConfig("kv", dom, kvService()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Crash()
	client := sim.NewClient("c")
	defer client.Close()
	sess := client.Session("kv")
	_, err = sess.Call("put", []byte("malformed"))
	var ae *mspr.AppError
	if !errors.As(err, &ae) {
		t.Fatalf("expected *mspr.AppError, got %v", err)
	}
}

func TestPublicAPITwoDomains(t *testing.T) {
	sim := mspr.NewSim(0)
	front := sim.NewDomain("front")
	backDom := sim.NewDomain("back")
	backDef := mspr.Definition{
		Methods: map[string]mspr.Handler{
			"echo": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				return arg, nil
			},
		},
	}
	frontDef := mspr.Definition{
		Methods: map[string]mspr.Handler{
			"relay": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				return ctx.Call("backend", "echo", arg)
			},
		},
	}
	f, err := mspr.Start(sim.NewConfig("frontend", front, frontDef))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Crash()
	b, err := mspr.Start(sim.NewConfig("backend", backDom, backDef))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Crash()
	client := sim.NewClient("c")
	defer client.Close()
	sess := client.Session("frontend")
	out, err := sess.Call("relay", []byte("across domains"))
	if err != nil || string(out) != "across domains" {
		t.Fatalf("relay = (%q, %v)", out, err)
	}
}

func TestPublicAPIConcurrentSessions(t *testing.T) {
	sim := mspr.NewSim(0)
	dom := sim.NewDomain("t")
	srv, err := mspr.Start(sim.NewConfig("kv", dom, kvService()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Crash()
	client := sim.NewClient("c")
	defer client.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := client.Session("kv")
			want := fmt.Sprintf("v%d", i)
			if _, err := sess.Call("put", []byte("k="+want)); err != nil {
				errs <- err
				return
			}
			got, err := sess.Call("get", []byte("k"))
			if err != nil || string(got) != want {
				errs <- fmt.Errorf("session %d: got %q, %v", i, got, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPublicAPIStatsExposed(t *testing.T) {
	sim := mspr.NewSim(0)
	dom := sim.NewDomain("t")
	srv, err := mspr.Start(sim.NewConfig("kv", dom, kvService()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Crash()
	client := sim.NewClient("c")
	defer client.Close()
	sess := client.Session("kv")
	for i := 0; i < 5; i++ {
		if _, err := sess.Call("put", []byte("k=v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().RequestsServed.Load(); got != 5 {
		t.Fatalf("RequestsServed = %d", got)
	}
	if srv.Epoch() != 1 {
		t.Fatalf("fresh server epoch = %d, want 1", srv.Epoch())
	}
	if srv.ID() != "kv" {
		t.Fatalf("ID = %q", srv.ID())
	}
}
