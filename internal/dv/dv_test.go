package dv

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestStateIDOrdering(t *testing.T) {
	cases := []struct {
		a, b StateID
		less bool
	}{
		{StateID{1, 10}, StateID{1, 20}, true},
		{StateID{1, 20}, StateID{1, 10}, false},
		{StateID{1, 100}, StateID{2, 1}, true}, // epoch dominates
		{StateID{2, 1}, StateID{1, 100}, false},
		{StateID{1, 10}, StateID{1, 10}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestVectorMergeTakesMax(t *testing.T) {
	a := Vector{{"p1", 1}: 10, {"p2", 1}: 20}
	b := Vector{{"p1", 1}: 15, {"p3", 2}: 5}
	m := a.Clone().Merge(b)
	want := Vector{{"p1", 1}: 15, {"p2", 1}: 20, {"p3", 2}: 5}
	if !m.Equal(want) {
		t.Fatalf("merge = %v, want %v", m, want)
	}
}

func TestMergeIntoNil(t *testing.T) {
	var a Vector
	a = a.Merge(Vector{{"p", 1}: 1})
	if a[Entry{"p", 1}] != 1 {
		t.Fatalf("merge into nil: %v", a)
	}
}

func TestSetKeepsLater(t *testing.T) {
	v := Vector{}.Set("p", StateID{1, 10})
	v = v.Set("p", StateID{1, 5}) // earlier: ignored
	if v[Entry{"p", 1}] != 10 {
		t.Fatalf("set regressed: %v", v)
	}
	v = v.Set("p", StateID{2, 1}) // later epoch: separate entry
	if v[Entry{"p", 2}] != 1 || v[Entry{"p", 1}] != 10 {
		t.Fatalf("set collapsed epochs: %v", v)
	}
}

// TestMergeKeepsCrossEpochEntries is the regression for the masked-orphan
// bug: a dependency on an older epoch of a process must survive a merge
// into a vector that already depends on a newer epoch — the newer epoch's
// state does not transitively include the older epoch's lost suffix, so
// collapsing the entries would drop a live orphan dependency.
func TestMergeKeepsCrossEpochEntries(t *testing.T) {
	a := Vector{{"front", 2}: 9216}
	a = a.Merge(Vector{{"front", 1}: 10240})
	if a[Entry{"front", 1}] != 10240 || a[Entry{"front", 2}] != 9216 {
		t.Fatalf("cross-epoch merge lost an entry: %v", a)
	}
	k := NewKnowledge()
	k.Record(RecoveryInfo{Process: "front", CrashedEpoch: 1, Recovered: 9728})
	who, orphan := k.OrphanIn(a)
	if !orphan || who != "front" {
		t.Fatalf("masked orphan not detected: (%v, %v) in %v", who, orphan, a)
	}
}

// randomVector builds a vector from fuzz input.
func randomVector(rng *rand.Rand) Vector {
	n := rng.Intn(5)
	v := Vector{}
	names := []ProcessID{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		v = v.Set(names[rng.Intn(len(names))], StateID{Epoch: uint32(rng.Intn(3) + 1), LSN: int64(rng.Intn(100))})
	}
	return v
}

func TestMergePropertyCommutativeIdempotentAssociative(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randomVector(rng), randomVector(rng), randomVector(rng)
		// Commutative
		ab := a.Clone().Merge(b)
		ba := b.Clone().Merge(a)
		if !ab.Equal(ba) {
			return false
		}
		// Idempotent
		aa := a.Clone().Merge(a)
		if !aa.Equal(a) && len(a) > 0 {
			return false
		}
		// Associative
		abc1 := a.Clone().Merge(b).Merge(c)
		abc2 := a.Clone().Merge(b.Clone().Merge(c))
		return abc1.Equal(abc2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorBinaryRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVector(rng)
		buf := v.AppendBinary([]byte("prefix")[6:]) // empty slice with cap
		got, rest, err := DecodeVector(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		if len(v) == 0 {
			return len(got) == 0
		}
		return got.Equal(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorDecodeTrailing(t *testing.T) {
	v := Vector{{"p", 1}: 42}
	buf := v.AppendBinary(nil)
	buf = append(buf, 0xAB, 0xCD)
	got, rest, err := DecodeVector(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) || len(rest) != 2 {
		t.Fatalf("got %v, rest %x", got, rest)
	}
}

func TestDecodeVectorCorrupt(t *testing.T) {
	if _, _, err := DecodeVector(nil); err == nil {
		t.Fatal("decoding empty buffer should fail")
	}
	v := Vector{{"process-name", 3}: 999}
	buf := v.AppendBinary(nil)
	if _, _, err := DecodeVector(buf[:len(buf)/2]); err == nil {
		t.Fatal("decoding truncated buffer should fail")
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	if _, _, err := DecodeVector(append(huge, buf[1:]...)); err == nil {
		t.Fatal("a count larger than the input should fail")
	}
}

func TestKnowledgeOrphanPredicate(t *testing.T) {
	k := NewKnowledge()
	// p crashed ending epoch 1 having persisted up to 100.
	k.Record(RecoveryInfo{Process: "p", CrashedEpoch: 1, Recovered: 100})

	if k.IsOrphan("p", StateID{1, 100}) {
		t.Fatal("state at recovered LSN is not an orphan")
	}
	if !k.IsOrphan("p", StateID{1, 101}) {
		t.Fatal("state beyond recovered LSN is an orphan")
	}
	if k.IsOrphan("p", StateID{2, 500}) {
		t.Fatal("new-epoch state is not an orphan")
	}
	if k.IsOrphan("q", StateID{1, 101}) {
		t.Fatal("other processes unaffected")
	}
}

func TestKnowledgePerEpoch(t *testing.T) {
	k := NewKnowledge()
	k.Record(RecoveryInfo{Process: "p", CrashedEpoch: 1, Recovered: 100})
	k.Record(RecoveryInfo{Process: "p", CrashedEpoch: 2, Recovered: 300})
	// Epoch-1 state beyond 100 stays an orphan even though epoch 2
	// recovered to 300 (the LSNs were reused by different content).
	if !k.IsOrphan("p", StateID{1, 150}) {
		t.Fatal("old-epoch orphan forgotten after later recovery")
	}
	if k.IsOrphan("p", StateID{2, 250}) {
		t.Fatal("epoch-2 durable state misjudged")
	}
	if !k.IsOrphan("p", StateID{2, 301}) {
		t.Fatal("epoch-2 lost state not orphan")
	}
}

func TestKnowledgeRecordIdempotent(t *testing.T) {
	k := NewKnowledge()
	info := RecoveryInfo{Process: "p", CrashedEpoch: 1, Recovered: 100}
	if !k.Record(info) {
		t.Fatal("first record should be new")
	}
	if k.Record(info) {
		t.Fatal("second record should not be new")
	}
}

func TestOrphanIn(t *testing.T) {
	k := NewKnowledge()
	k.Record(RecoveryInfo{Process: "p", CrashedEpoch: 1, Recovered: 100})
	v := Vector{{"q", 1}: 999, {"p", 1}: 50}
	if _, orphan := k.OrphanIn(v); orphan {
		t.Fatal("vector without lost deps misjudged")
	}
	v = v.Set("p", StateID{1, 200})
	who, orphan := k.OrphanIn(v)
	if !orphan || who != "p" {
		t.Fatalf("OrphanIn = (%v, %v)", who, orphan)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	k := NewKnowledge()
	k.Record(RecoveryInfo{Process: "b", CrashedEpoch: 2, Recovered: 7})
	k.Record(RecoveryInfo{Process: "a", CrashedEpoch: 1, Recovered: 3})
	k.Record(RecoveryInfo{Process: "a", CrashedEpoch: 2, Recovered: 9})
	snap := k.Snapshot()
	want := []RecoveryInfo{
		{Process: "a", CrashedEpoch: 1, Recovered: 3},
		{Process: "a", CrashedEpoch: 2, Recovered: 9},
		{Process: "b", CrashedEpoch: 2, Recovered: 7},
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot = %v", snap)
	}
	k2 := NewKnowledge()
	k2.Restore(snap)
	if !reflect.DeepEqual(k2.Snapshot(), want) {
		t.Fatalf("restore mismatch: %v", k2.Snapshot())
	}
}

func TestVectorStringDeterministic(t *testing.T) {
	v := Vector{{"z", 1}: 1, {"a", 2}: 3}
	if got := v.String(); got != "[a:2:3 z:1:1]" {
		t.Fatalf("String() = %q", got)
	}
}

func TestStateIDMax(t *testing.T) {
	a, b := StateID{1, 10}, StateID{2, 3}
	if a.Max(b) != b || b.Max(a) != b {
		t.Fatal("Max should pick the later state")
	}
	if a.Max(a) != a {
		t.Fatal("Max of equal states")
	}
	if got := a.String(); got != "1:10" {
		t.Fatalf("String = %q", got)
	}
}

func TestKnowledgeLookup(t *testing.T) {
	k := NewKnowledge()
	if _, ok := k.Lookup("p", 1); ok {
		t.Fatal("empty knowledge should have no entry")
	}
	k.Record(RecoveryInfo{Process: "p", CrashedEpoch: 1, Recovered: 42})
	r, ok := k.Lookup("p", 1)
	if !ok || r != 42 {
		t.Fatalf("Lookup = (%d, %v)", r, ok)
	}
	// Record never overwrites: the recovered state number of an epoch is
	// determined once.
	k.Record(RecoveryInfo{Process: "p", CrashedEpoch: 1, Recovered: 99})
	if r, _ := k.Lookup("p", 1); r != 42 {
		t.Fatalf("Lookup after re-record = %d, want 42", r)
	}
}
