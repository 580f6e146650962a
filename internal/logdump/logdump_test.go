package logdump

import (
	"flag"
	"os"
	"sort"
	"strings"
	"testing"

	"mspr/internal/dv"
	"mspr/internal/logrec"
	"mspr/internal/simdisk"
	"mspr/internal/wal"
)

// oneOfEach is one record of every type the engine logs.
func oneOfEach() []fixtureRecord {
	vec := dv.Vector{{Process: "peer", Epoch: 1}: 42}
	return []fixtureRecord{
		{logrec.TSessionStart, logrec.SessionStart{Session: "s1", ClientAddr: "c"}.Encode()},
		{logrec.TReqReceive, logrec.ReqReceive{Session: "s1", Seq: 1, Method: "m", HasDV: true, DV: vec}.Encode()},
		{logrec.TReplyReceive, logrec.ReplyReceive{Session: "s1", OutSession: "o", Seq: 1}.Encode()},
		{logrec.TSharedRead, logrec.SharedRead{Session: "s1", Var: "v", Value: []byte("x"), DV: vec}.Encode()},
		{logrec.TSharedWrite, logrec.SharedWrite{Session: "s1", Var: "v", Value: []byte("y"), DV: vec, PrevWrite: 7}.Encode()},
		{logrec.TSVCheckpoint, logrec.SVCheckpoint{Var: "v", Value: []byte("z")}.Encode()},
		{logrec.TSessionCkpt, logrec.SessionCheckpoint{Session: "s1", Vars: map[string][]byte{"a": nil}, NextExpected: 2}.Encode()},
		{logrec.TSessionEnd, logrec.SessionEnd{Session: "s1"}.Encode()},
		{logrec.TEOS, logrec.EOS{Session: "s1", Orphan: 99}.Encode()},
		{logrec.TRecoveryInfo, logrec.RecoveryInfo{Process: "p", CrashedEpoch: 1, Recovered: 10}.Encode()},
		{logrec.TMSPCheckpoint, logrec.MSPCheckpoint{Epoch: 2}.Encode()},
	}
}

type fixtureRecord struct {
	typ logrec.Type
	pay []byte
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

func TestDumpDecodesEveryRecordType(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	lg, err := wal.Open(disk, "x.log", wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	records := oneOfEach()
	var last wal.LSN
	for _, r := range records {
		last, err = lg.Append(byte(r.typ), r.pay)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Flush(last); err != nil {
		t.Fatal(err)
	}
	_ = lg.WriteAnchor(wal.Anchor{Epoch: 2, CheckpointLSN: last})
	lg.Close()

	var sb strings.Builder
	sum, err := Dump(disk, "x.log", &sb)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != len(records) {
		t.Fatalf("dumped %d records, want %d", sum.Records, len(records))
	}
	if !sum.HasAnchor || sum.Anchor.Epoch != 2 {
		t.Fatalf("anchor missing from summary: %+v", sum)
	}
	out := sb.String()
	for _, want := range []string{
		"SessionStart", "ReqReceive", "ReplyReceive", "SharedRead", "SharedWrite",
		"SVCheckpoint", "SessionCkpt", "SessionEnd", "EOS", "RecoveryInfo", "MSPCheckpoint",
		"peer:1:42", "orphan@99", "prev@7", "crashedEpoch=1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "UNDECODABLE") {
		t.Fatalf("dump failed to decode a record:\n%s", out)
	}
	if len(sum.Segments) != 1 || sum.Segments[0].Records != len(records) || !sum.Segments[0].Active {
		t.Fatalf("single-segment summary wrong: %+v", sum.Segments)
	}
}

func TestDumpEnumeratesSegments(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	lg, err := wal.Open(disk, "x.log", wal.Config{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	var lsns []wal.LSN
	for i := 0; i < 600; i++ { // 11 bytes each, packed: four 2 KB segments
		lsn, err := lg.Append(byte(logrec.TSessionEnd), logrec.SessionEnd{Session: "s"}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Flush(lsn); err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	head := lsns[len(lsns)-12]
	if err := lg.WriteAnchor(wal.Anchor{Epoch: 1, CheckpointLSN: head, Head: head}); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	var sb strings.Builder
	sum, err := Dump(disk, "x.log", &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Segments) < 3 {
		t.Fatalf("dump saw %d segments, want several: %+v", len(sum.Segments), sum.Segments)
	}
	var reclaimable, counted int
	for i, sd := range sum.Segments {
		if sd.Reclaimable {
			reclaimable++
		}
		if sd.Active != (i == len(sum.Segments)-1) {
			t.Fatalf("segment %d active flag wrong: %+v", i, sd)
		}
		counted += sd.Records
	}
	if reclaimable == 0 {
		t.Fatalf("no segment marked reclaimable below head %d: %+v", head, sum.Segments)
	}
	if counted != sum.Records || sum.Records != 12 {
		t.Fatalf("per-segment records %d, total %d, want 12 (records at or above head)", counted, sum.Records)
	}
	out := sb.String()
	for _, want := range []string{"segment 000001", "reclaimable", "active"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump output missing %q:\n%s", want, out)
		}
	}
	// The dump is read-only: every segment file survives it.
	if got := len(disk.List("x.log.0")); got != len(sum.Segments) {
		t.Fatalf("dump deleted segment files: %d on disk, %d dumped", got, len(sum.Segments))
	}
}

// TestDumpThreeSegmentsGolden pins the dump of a fixed three-segment log,
// byte for byte: the dump is Scan's second consumer (crash recovery is the
// first), reading from an anchor head that lies mid-segment, so a Scan that
// skipped, repeated or reordered a record at a segment or block seam while
// streaming its blocks would show here as a diff. Regenerate with
// go test ./internal/logdump -run Golden -update.
func TestDumpThreeSegmentsGolden(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	lg, err := wal.Open(disk, "x.log", wal.Config{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// One record of each type a flush, round after round until a third
	// segment opens: the log is packed, so some fifty records fill one.
	var lsns []wal.LSN
	for len(lg.Segments()) < 3 {
		for _, r := range oneOfEach() {
			lsn, err := lg.Append(byte(r.typ), r.pay)
			if err != nil {
				t.Fatal(err)
			}
			if err := lg.Flush(lsn); err != nil {
				t.Fatal(err)
			}
			lsns = append(lsns, lsn)
		}
	}
	// The head leaves the first segment's last three records live.
	inFirst := sort.Search(len(lsns), func(i int) bool { return lsns[i] >= lg.Segments()[1].Base })
	if err := lg.WriteAnchor(wal.Anchor{Epoch: 2, CheckpointLSN: lsns[inFirst+10], Head: lsns[inFirst-3]}); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	var sb strings.Builder
	sum, err := Dump(disk, "x.log", &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Segments) != 3 || sum.Segments[0].Records != 3 {
		t.Fatalf("the fixture is not three segments with the head inside the first: %+v", sum.Segments)
	}
	const golden = "testdata/three_segments.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("dump differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

func TestDescribeCorruptPayload(t *testing.T) {
	if got := Describe(logrec.TReqReceive, []byte{0xFF}); !strings.Contains(got, "UNDECODABLE") {
		t.Fatalf("corrupt payload described as %q", got)
	}
}

func TestDumpEmptyLog(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	var sb strings.Builder
	sum, err := Dump(disk, "empty.log", &sb)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 0 || sum.HasAnchor {
		t.Fatalf("empty log summary: %+v", sum)
	}
}
