package core

import (
	"fmt"
	"go/ast"
	"sync"
	"sync/atomic"
	"testing"

	"mspr/internal/dv"
	"mspr/internal/invariants"
)

// phaseNames names every session phase, for tables that start from each.
var phaseNames = map[sessionPhase]string{phaseIdle: "idle", phaseBusy: "busy",
	phaseRecovering: "recovering", phaseEnded: "ended", phaseUnrecovered: "unrecovered"}

// TestSessionLifecycle is the session machine, declared as a table: each
// helper's one transition. It starts a session in every phase, applies
// every helper, and checks the resulting phase, the helper's result and
// the change in RecoveringSessions — the declared move from the helper's
// phase, and nothing at all from any other.
func TestSessionLifecycle(t *testing.T) {
	e := newTestEnv(t)
	defer e.cleanup()
	srv := e.start("msp1", counterDef())
	ghost := dv.Entry{Process: "ghost", Epoch: 1}
	srv.know.Record(dv.RecoveryInfo{Process: ghost.Process, CrashedEpoch: ghost.Epoch, Recovered: 50})

	const (
		anyPhase sessionPhase = -1 // a row that moves from every phase
		noPhase  sessionPhase = -2 // a row that moves from none
	)
	void := func(f func(*Session)) func(*Session) *bool {
		return func(se *Session) *bool { f(se); return nil }
	}
	result := func(f func(*Session) bool) func(*Session) *bool {
		return func(se *Session) *bool { r := f(se); return &r }
	}
	machine := []struct {
		helper   string
		orphan   bool // the session's DV depends on lost state
		apply    func(*Session) *bool
		from, to sessionPhase
	}{
		{"tryAcquire", false, result((*Session).tryAcquire), phaseIdle, phaseBusy},
		{"release", false, void((*Session).release), phaseBusy, phaseIdle},
		{"releaseToRecovery", false, void((*Session).releaseToRecovery), phaseBusy, phaseRecovering},
		{"beginRecoveryIfOrphan/orphan", true, result((*Session).beginRecoveryIfOrphan), phaseIdle, phaseRecovering},
		{"beginRecoveryIfOrphan/no-orphan", false, result((*Session).beginRecoveryIfOrphan), noPhase, noPhase},
		{"finishRecovery", false, void((*Session).finishRecovery), phaseRecovering, phaseIdle},
		{"markUnrecovered", false, void((*Session).markUnrecovered), phaseIdle, phaseUnrecovered},
		{"claimForReplay", false, result((*Session).claimForReplay), phaseUnrecovered, phaseRecovering},
		{"markEnded", false, void((*Session).markEnded), anyPhase, phaseEnded},
	}
	owes := map[sessionPhase]int{phaseRecovering: 1, phaseUnrecovered: 1}
	for _, m := range machine {
		for start, name := range phaseNames {
			sess := newSession(srv, m.helper+"-from-"+name, "", false)
			if m.orphan {
				sess.mergeVec(dv.Vector{ghost: 100})
			}
			sess.mu.Lock()
			sess.move(phaseIdle, start)
			sess.mu.Unlock()

			want, moved := start, m.from == anyPhase || m.from == start
			if moved {
				want = m.to
			}
			before := srv.RecoveringSessions()
			got := m.apply(sess)
			sess.mu.Lock()
			phase := sess.phase
			sess.mu.Unlock()
			if phase != want {
				t.Errorf("%s from %s: phase %s, want %s", m.helper, name, phaseNames[phase], phaseNames[want])
			}
			if got != nil && *got != moved {
				t.Errorf("%s from %s: returned %v, want %v", m.helper, name, *got, moved)
			}
			if d, wantD := srv.RecoveringSessions()-before, owes[want]-owes[start]; d != wantD {
				t.Errorf("%s from %s: RecoveringSessions changed by %d, want %d", m.helper, name, d, wantD)
			}
			sess.markEnded() // drops whatever replay it still owes
		}
	}
	if n := srv.RecoveringSessions(); n != 0 {
		t.Errorf("RecoveringSessions = %d after every session ended, want 0", n)
	}
}

// TestOneSessionPhaseStore pins the machine to one function: outside
// tests, a session's phase is stored only in Session.move, and only move
// adjusts Server.recovering, so the count of sessions owing a replay
// cannot drift from their phases.
func TestOneSessionPhaseStore(t *testing.T) {
	_, files, err := invariants.ParseTree(".", invariants.NonTest)
	if err != nil {
		t.Fatal(err)
	}
	phaseStore := func(n ast.Node) bool {
		var lhs []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			lhs = n.Lhs
		case *ast.IncDecStmt:
			lhs = []ast.Expr{n.X}
		}
		for _, x := range lhs {
			if invariants.Sel("", "phase")(x) {
				return true
			}
		}
		return false
	}
	recoveringAdd := func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || !invariants.Sel("", "Add")(c.Fun) {
			return false
		}
		return invariants.Sel("", "recovering")(c.Fun.(*ast.SelectorExpr).X)
	}
	stores, adds := 0, 0
	invariants.EachFuncDecl(files, func(path string, fd *ast.FuncDecl) {
		if fd.Name.Name == "move" {
			stores += invariants.Count(fd, phaseStore)
			adds += invariants.Count(fd, recoveringAdd)
			return
		}
		if n := invariants.Count(fd, phaseStore); n > 0 {
			t.Errorf("%s: %s stores a session phase %d times: only Session.move may", path, fd.Name.Name, n)
		}
		if n := invariants.Count(fd, recoveringAdd); n > 0 {
			t.Errorf("%s: %s adjusts Server.recovering %d times: only Session.move may", path, fd.Name.Name, n)
		}
	})
	if stores != 1 || adds == 0 {
		t.Errorf("Session.move stores the phase %d times and adjusts recovering %d times, want one store and the count", stores, adds)
	}
}

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
