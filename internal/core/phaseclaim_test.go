package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mspr/internal/dv"
)

// TestMarkUnrecoveredDoesNotRevertClaim pins the bug the phasestate
// analyzer caught: markUnrecovered used to store phaseUnrecovered
// unconditionally, so a late analysis pass (or a racing sweep) could
// revert a session a request had already claimed for replay back to
// unrecovered — and a second claimer would then win, voiding
// claimForReplay's one-winner guarantee and replaying the session twice.
func TestMarkUnrecoveredDoesNotRevertClaim(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("msp1", counterDef())

	sess := newSession(srv, "claimed-sess", "", false)
	sess.markUnrecovered()
	if !sess.claimForReplay() {
		t.Fatal("first claim on an unrecovered session should win")
	}
	// The racing re-mark: must be a no-op on a claimed session.
	sess.markUnrecovered()
	if sess.claimForReplay() {
		t.Fatal("markUnrecovered reverted a claimed session: a second claimer won")
	}
	if !sess.pendingReplay() {
		t.Fatal("claimed session should still owe its replay")
	}
	sess.finishRecovery()
	if sess.pendingReplay() {
		t.Fatal("session should be live after finishRecovery")
	}
}

// TestClaimForReplayOneWinnerRace hammers the unrecovered → replaying
// transition from many goroutines at once — concurrent retried requests
// plus a background-sweep claimer that also re-marks, as recovery.go's
// analysis pass does — and requires exactly one winner per session.
// Meant to run under -race (CI does).
func TestClaimForReplayOneWinnerRace(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("msp1", counterDef())

	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	for r := 0; r < rounds; r++ {
		sess := newSession(srv, fmt.Sprintf("raced-%d", r), "", false)
		sess.markUnrecovered()

		var wins atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ { // retried client requests
			wg.Add(1)
			go func() {
				defer wg.Done()
				if sess.claimForReplay() {
					wins.Add(1)
				}
			}()
		}
		wg.Add(1)
		go func() { // background sweep: claim, and a straggling re-mark
			defer wg.Done()
			if sess.claimForReplay() {
				wins.Add(1)
			}
			sess.markUnrecovered()
		}()
		wg.Wait()

		// After the dust settles, the re-mark must not have minted a
		// second claimable unit.
		if sess.claimForReplay() {
			wins.Add(1)
		}
		if w := wins.Load(); w != 1 {
			t.Fatalf("round %d: %d claimers won (want exactly 1)", r, w)
		}
		sess.finishRecovery()
	}
}

// TestOrphanSweepReadsVectorUnderLock: the recovery-message sweep looks at
// every session's DV, including sessions whose owner — a worker, or a
// replay in progress — is merging into it at that moment. The sweep used to
// borrow the vector (vecLocked) and walk it outside the session lock: a
// concurrent map read and write, which the Go runtime may answer by
// killing the process. Meant to run under -race (CI does).
func TestOrphanSweepReadsVectorUnderLock(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("msp1", counterDef())
	sess := newSession(srv, "busy-sess", "", false)
	if !sess.tryAcquire() {
		t.Fatal("fresh session should be idle")
	}
	srv.sessions.insert(sess)

	done := make(chan struct{})
	go func() { // the owner: merging dependencies as messages arrive
		defer close(done)
		for i := int64(1); i <= 2000; i++ {
			sess.mergeVec(dv.Vector{dv.Entry{Process: "peer", Epoch: uint32(i % 7)}: i})
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			srv.sweepOrphanSessions()
		}
	}
}
