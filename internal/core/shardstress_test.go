package core

import (
	"fmt"
	"sync"
	"testing"

	"mspr/internal/logrec"
)

// TestCheckpointPinsStartingSession: a session that is visible in the
// striped table but has not yet published its SessionStart LSN (the
// append happens outside the shard lock) must pin the fuzzy checkpoint's
// log head at its startPin. Without the pin the checkpointer would
// truncate the log past the in-flight SessionStart and the session would
// be unrecoverable.
func TestCheckpointPinsStartingSession(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("msp1", counterDef())
	cs := e.endClient().Session("msp1")
	for i := 0; i < 3; i++ {
		mustCall(t, cs, "inc", nil)
	}

	// Freeze a session mid-creation, exactly as lookupOrCreateSession
	// publishes it: born acquired, pin captured, no start LSN yet.
	pin := srv.log.Next()
	sess := newSession(srv, "starting-sess", "", false)
	sess.phase = phaseBusy
	sess.startPin = pin
	srv.sessions.insert(sess)

	// More logged traffic, so the checkpoint has records it could (but
	// must not) truncate past the pin.
	for i := 0; i < 3; i++ {
		mustCall(t, cs, "inc", nil)
	}

	if err := srv.writeMSPCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if h := srv.log.Head(); h > pin {
		t.Fatalf("checkpoint advanced log head to %d, past the starting session's pin %d", h, pin)
	}

	// The delayed append lands (necessarily at an LSN ≥ pin), completing
	// the start; flush it and crash. The recovery scan starts at the
	// anchored head ≤ pin, so it must find the SessionStart and rebuild
	// the session.
	rec := logrec.SessionStart{Session: sess.id}
	lsn, n, err := srv.appendRec(logrec.TSessionStart, rec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if lsn < pin {
		t.Fatalf("SessionStart landed at %d, below its pin %d", lsn, pin)
	}
	sess.noteStart(lsn, n)
	if err := srv.log.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	e.restart("msp1")
	if e.srvs["msp1"].sessions.get("starting-sess") == nil {
		t.Fatal("session created during a checkpoint was lost across a crash")
	}
}

// TestShardedSessionTableStress hammers the striped session table from
// many goroutines — session creation, request processing, session end —
// while a checkpointer loop concurrently scans the shards, truncates the
// log head, and forces stale checkpoints. Run under -race, this is the
// regression net for the lock-striping refactor; correctness of each
// reply is also asserted.
func TestShardedSessionTableStress(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("msp1", counterDef())
	c := e.endClient()

	const (
		goroutines = 8
		rounds     = 20
	)
	stop := make(chan struct{})
	errc := make(chan error, goroutines+1)
	var workers, ckpt sync.WaitGroup

	ckpt.Add(1)
	go func() { // checkpoint storm against the live table
		defer ckpt.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.writeMSPCheckpoint(); err != nil {
				errc <- fmt.Errorf("checkpoint: %w", err)
				return
			}
			srv.forceStaleCheckpoints()
		}
	}()

	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < rounds; i++ {
				cs := c.Session("msp1")
				for want := uint64(1); want <= 3; want++ {
					out, err := cs.Call("inc", nil)
					if err != nil {
						errc <- fmt.Errorf("inc: %w", err)
						return
					}
					if got := asU64(out); got != want {
						errc <- fmt.Errorf("inc returned %d, want %d", got, want)
						return
					}
				}
				if _, err := cs.Call("sharedInc", nil); err != nil {
					errc <- fmt.Errorf("sharedInc: %w", err)
					return
				}
				if err := cs.End(); err != nil {
					errc <- fmt.Errorf("end: %w", err)
					return
				}
			}
		}()
	}

	workers.Wait()
	close(stop)
	ckpt.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// Every session was ended; only the empty table remains.
	if left := len(srv.sessions.snapshot()); left != 0 {
		t.Fatalf("%d sessions left in the table after all were ended", left)
	}
}

// snapshot returns the sessions present at some point during the call.
func (t *sessionTable) snapshot() []*Session {
	var out []*Session
	t.forEach(func(sess *Session) { out = append(out, sess) })
	return out
}
