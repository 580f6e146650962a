package sdb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"mspr/internal/logrec"
	"mspr/internal/simdisk"
	"mspr/internal/wal"
)

func newStore(t *testing.T) (*Store, *simdisk.Disk) {
	t.Helper()
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	s, err := Open(disk, "db")
	if err != nil {
		t.Fatal(err)
	}
	return s, disk
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newStore(t)
	tx := s.Begin(true)
	if err := tx.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("got (%q, %v)", v, ok)
	}
}

func TestTxSeesOwnWrites(t *testing.T) {
	s, _ := newStore(t)
	tx := s.Begin(true)
	_ = tx.Put("k", []byte("staged"))
	v, ok, err := tx.Get("k")
	if err != nil || !ok || string(v) != "staged" {
		t.Fatalf("(%q, %v, %v)", v, ok, err)
	}
	// Not visible outside before commit.
	if _, ok := s.Get("k"); ok {
		t.Fatal("uncommitted write visible")
	}
	_ = tx.Commit()
	if _, ok := s.Get("k"); !ok {
		t.Fatal("committed write invisible")
	}
}

func TestAbortDiscards(t *testing.T) {
	s, _ := newStore(t)
	tx := s.Begin(true)
	_ = tx.Put("k", []byte("v"))
	tx.Abort()
	if _, ok := s.Get("k"); ok {
		t.Fatal("aborted write visible")
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit after abort should fail")
	}
}

func TestReadOnlyTxRejectsWrites(t *testing.T) {
	s, _ := newStore(t)
	tx := s.Begin(false)
	if err := tx.Put("k", nil); err == nil {
		t.Fatal("read-only Put accepted")
	}
	if err := tx.Delete("k"); err == nil {
		t.Fatal("read-only Delete accepted")
	}
}

func TestDelete(t *testing.T) {
	s, _ := newStore(t)
	tx := s.Begin(true)
	_ = tx.Put("k", []byte("v"))
	_ = tx.Commit()
	tx = s.Begin(true)
	_ = tx.Delete("k")
	_ = tx.Commit()
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key visible")
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	s, _ := Open(disk, "db")
	for i := 0; i < 20; i++ {
		tx := s.Begin(true)
		_ = tx.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(disk, "db")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v, ok := s2.Get(fmt.Sprintf("k%d", i))
		if !ok || v[0] != byte(i) {
			t.Fatalf("k%d lost: (%v, %v)", i, v, ok)
		}
	}
}

func TestCompactionPreservesData(t *testing.T) {
	big := bytes.Repeat([]byte("s"), 100<<10) // a snapshot larger than one 64 KB read-ahead block
	for _, tc := range []struct {
		name string
		big  []byte
	}{{"small", nil}, {"snapshot over one read-ahead block", big}} {
		t.Run(tc.name, func(t *testing.T) {
			disk := simdisk.NewDisk(simdisk.DefaultModel(0))
			s, _ := Open(disk, "db")
			s.compactAt = 256
			if tc.big != nil {
				tx := s.Begin(true)
				_ = tx.Put("big", tc.big)
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				tx := s.Begin(true)
				_ = tx.Put("hot", []byte(fmt.Sprintf("v%d", i)))
				_ = tx.Put(fmt.Sprintf("cold%d", i), []byte("x"))
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if a, ok, err := s.log.ReadAnchor(); err != nil || !ok || a.CheckpointLSN == 0 {
				t.Fatalf("no snapshot anchored: (%+v, %v, %v)", a, ok, err)
			}
			s2, err := Open(disk, "db")
			if err != nil {
				t.Fatal(err)
			}
			v, ok := s2.Get("hot")
			if !ok || string(v) != "v49" {
				t.Fatalf("hot = (%q, %v)", v, ok)
			}
			want := 51
			if tc.big != nil {
				want++
				if v, _ := s2.Get("big"); !bytes.Equal(v, tc.big) {
					t.Fatalf("big value came back as %d bytes, want %d", len(v), len(tc.big))
				}
			}
			if s2.Len() != want {
				t.Fatalf("len = %d, want %d", s2.Len(), want)
			}
			if s2.Digest() != s.Digest() {
				t.Fatal("reopened store's digest differs from the one that wrote it")
			}
		})
	}
}

func TestCommitChargesDisk(t *testing.T) {
	s, disk := newStore(t)
	tx := s.Begin(true)
	_ = tx.Put("k", bytes.Repeat([]byte("x"), 8192))
	_ = tx.Commit()
	st := disk.Stats()
	if st.Writes == 0 || st.SectorsOut < 16 {
		t.Fatalf("8 KB commit charged %+v", st)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	prop := func(puts map[string][]byte, dels []string) bool {
		for k, v := range puts {
			if len(v) == 0 {
				puts[k] = []byte{0} // a put's value is never empty: an empty Put is staged as a delete
			}
		}
		var enc logrec.Coder
		walkRecord(&enc, &puts, &dels)
		var gotPuts map[string][]byte
		var gotDels []string
		dec := logrec.NewDecoder(enc.Encoded())
		walkRecord(&dec, &gotPuts, &gotDels)
		if dec.Done("record") != nil || len(gotPuts) != len(puts) || !slices.Equal(gotDels, dels) {
			return false
		}
		for k, v := range puts {
			if !bytes.Equal(gotPuts[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// commitKV commits one put and fails the test on error.
func commitKV(t *testing.T, s *Store, k, v string) {
	t.Helper()
	tx := s.Begin(true)
	_ = tx.Put(k, []byte(v))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit %s: %v", k, err)
	}
}

// recordLSNs lists the LSNs of the records in the named store's journal.
func recordLSNs(t *testing.T, disk *simdisk.Disk, name string) []wal.LSN {
	t.Helper()
	log, err := wal.Open(disk, name+".journal", wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var lsns []wal.LSN
	if _, err := log.Scan(0, func(lsn wal.LSN, _ byte, _ []byte) error {
		lsns = append(lsns, lsn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return lsns
}

// A torn tail is cut off, and the next commit after it lands where the
// next open finds it.
func TestTornJournalTailIgnored(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	s, _ := Open(disk, "db")
	commitKV(t, s, "good", "v")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Garbage after the last record, as a torn write leaves it.
	j := disk.OpenFile("db.journal.000001")
	_, _ = j.WriteAt([]byte{1, 2, 3}, j.Size())
	s2, err := Open(disk, "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("good"); !ok {
		t.Fatal("valid prefix lost")
	}
	commitKV(t, s2, "after", "v")
	s3, err := Open(disk, "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get("after"); !ok {
		t.Fatal("a commit after the repaired tail was lost")
	}
}

// A damaged record with acknowledged commits after it is corruption,
// not a tail to cut: Open must refuse instead of dropping them.
func TestMidJournalDamageIsCorruption(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	s, _ := Open(disk, "db")
	for _, k := range []string{"a", "b", "c"} {
		commitKV(t, s, k, "v")
	}
	lsns := recordLSNs(t, disk, "db")
	if len(lsns) != 3 {
		t.Fatalf("journal holds %d records, want 3", len(lsns))
	}
	// In the first segment a record's file offset is its LSN.
	j := disk.OpenFile("db.journal.000001")
	b := make([]byte, 1)
	off := int64(lsns[1]) + 8
	_, _ = j.ReadAt(b, off)
	b[0] ^= 0x40
	_, _ = j.WriteAt(b, off)
	if _, err := Open(disk, "db"); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open after damaging the second of three commits: %v, want wal.ErrCorrupt", err)
	}
}

// A closed store's handle cannot write into the next incarnation's
// journal.
func TestStaleHandleCannotOverwrite(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	old, _ := Open(disk, "db")
	commitKV(t, old, "a", "v")
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := Open(disk, "db")
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, cur, "b", "v")
	tx := old.Begin(true)
	_ = tx.Put("stale", []byte("v"))
	if err := tx.Commit(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("commit through the closed store: %v, want wal.ErrClosed", err)
	}
	s, err := Open(disk, "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("b"); !ok {
		t.Fatal("the current incarnation's commit was overwritten")
	}
	if _, ok := s.Get("stale"); ok {
		t.Fatal("the closed store's commit landed")
	}
}
