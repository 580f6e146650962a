package sdb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mspr/internal/failpoint"
	"mspr/internal/simdisk"
	"mspr/internal/wal"
)

// A commit that crashes after its journal write is durable: the next
// incarnation finds the transaction committed even though this one
// never heard the acknowledgement.
func TestCommitCrashIsDurableButUnacknowledged(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	fp := failpoint.New(21)
	disk.SetFailpoints(fp)
	s, err := Open(disk, "db")
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	fp.Enable(FPCommitCrash)
	tx := s.Begin(true)
	tx.Put("k", []byte("v1"))
	if err := tx.Commit(); !failpoint.IsInjected(err) {
		t.Fatalf("commit err = %v, want injected crash", err)
	}
	if !s.Wedged() {
		t.Fatal("store not wedged after mid-commit crash")
	}

	// The dead incarnation refuses everything.
	tx2 := s.Begin(true)
	if _, _, err := tx2.Get("k"); !errors.Is(err, ErrWedged) {
		t.Fatalf("get on wedged store: %v, want ErrWedged", err)
	}
	tx2.Put("k", []byte("v2"))
	if err := tx2.Commit(); !errors.Is(err, ErrWedged) {
		t.Fatalf("commit on wedged store: %v, want ErrWedged", err)
	}

	// The next incarnation replays the journal: the crashed commit is in.
	s2, err := Open(disk, "db")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	v, ok := s2.Get("k")
	if !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("after reopen k = %q ok=%v, want the crashed commit's value", v, ok)
	}
}

// A torn journal write (simdisk-level fault) loses the uncommitted
// transaction cleanly: the valid journal prefix still replays.
func TestTornJournalWriteLosesOnlyThatCommit(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	fp := failpoint.New(22)
	disk.SetFailpoints(fp)
	s, err := Open(disk, "db")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tx := s.Begin(true)
	tx.Put("a", []byte("committed"))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// The write rewrites the sector the first commit ends in, then the
	// second commit's frame; four bytes of that frame persist, so the tear
	// cuts its header. A random prefix may keep the entire frame (that
	// commit is then durable but unacknowledged, FPCommitCrash's outcome)
	// or stop inside the rewritten bytes (nothing torn at all): neither is
	// what this test is about. The journal is one segment, whose file
	// offsets are LSNs.
	prefix := int64(s.log.Durable()) % simdisk.SectorSize
	fp.Enable(simdisk.FPWriteTorn+":db.journal", failpoint.Arg(prefix+4))
	tx2 := s.Begin(true)
	tx2.Put("b", []byte("torn"))
	if err := tx2.Commit(); !failpoint.IsInjected(err) {
		t.Fatalf("torn commit err = %v, want injected", err)
	}
	if !s.Wedged() {
		t.Fatal("store not wedged after torn journal write")
	}

	s2, err := Open(disk, "db")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if v, ok := s2.Get("a"); !ok || !bytes.Equal(v, []byte("committed")) {
		t.Fatalf("committed key lost: %q ok=%v", v, ok)
	}
	if _, ok := s2.Get("b"); ok {
		t.Fatal("torn transaction resurrected")
	}
}

// commitUntilFired commits one write of key after another, value(i) for
// the i-th, until the armed failpoint fires, and returns the error of
// the commit during which it fired: the compaction that commit triggered
// is what the fault hit. Every commit before it must succeed.
func commitUntilFired(t *testing.T, s *Store, fp *failpoint.Registry, point string, value func(i int) []byte) error {
	t.Helper()
	for i := 0; i < 50; i++ {
		tx := s.Begin(true)
		tx.Put("hot", value(i))
		err := tx.Commit()
		if fp.Hits(point) > 0 {
			return err
		}
		if err != nil {
			t.Fatalf("commit %d before %s fired: %v", i, point, err)
		}
	}
	t.Fatalf("%s never fired in 50 commits", point)
	return nil
}

// A snapshot whose anchor write is torn fails the commit that compacted,
// which wedges the store; the next incarnation replays from the previous
// snapshot, so the commit itself, durable before the snapshot, is kept.
// The tear hits the second snapshot's anchor: the first one's slot is
// what the anchor falls back to.
func TestSnapshotAnchorCrashWedgesStore(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	fp := failpoint.New(23)
	disk.SetFailpoints(fp)
	s, err := Open(disk, "db")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.compactAt = 256
	fp.Enable(wal.FPAnchorCrash, failpoint.SkipFirst(1))
	var last []byte
	err = commitUntilFired(t, s, fp, wal.FPAnchorCrash, func(i int) []byte {
		last = []byte(fmt.Sprintf("v%d", i))
		return last
	})
	if !failpoint.IsInjected(err) || !s.Wedged() {
		t.Fatalf("commit whose snapshot anchor was torn = %v, wedged %v; want the injected crash and a wedged store", err, s.Wedged())
	}
	s2, err := Open(disk, "db")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if v, ok := s2.Get("hot"); !ok || !bytes.Equal(v, last) {
		t.Fatalf("after reopen hot = %q ok=%v, want %q", v, ok, last)
	}
}

// A compaction that crashes between segment deletions fails the commit
// that compacted and wedges the store; the next incarnation, whose anchor
// already points at the snapshot, keeps every commit.
func TestSnapshotTruncateCrashWedgesStore(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	fp := failpoint.New(24)
	disk.SetFailpoints(fp)
	s, err := Open(disk, "db")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fp.Enable(wal.FPTruncateCrash)
	// Half a compaction's growth a commit, so a segment fills in a few
	// compactions and the next one truncates it.
	big := bytes.Repeat([]byte("x"), compactAt/2)
	var last []byte
	err = commitUntilFired(t, s, fp, wal.FPTruncateCrash, func(i int) []byte {
		last = append([]byte(fmt.Sprintf("v%d", i)), big...)
		return last
	})
	if !failpoint.IsInjected(err) || !s.Wedged() {
		t.Fatalf("commit whose compaction crashed mid-truncation = %v, wedged %v; want the injected crash and a wedged store", err, s.Wedged())
	}
	s2, err := Open(disk, "db")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if v, ok := s2.Get("hot"); !ok || !bytes.Equal(v, last) {
		t.Fatalf("after reopen hot is %d bytes ok=%v, want the last commit's %d", len(v), ok, len(last))
	}
}
