package simdisk

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestWriteTimeMatchesPaperFormula(t *testing.T) {
	m := DefaultModel(0)
	// The paper computes TFn = 60000/7200/2 + n/63·60000/7200 + n/63·1.2 ms
	// and estimates TF2 ≈ 4.5 ms before OS interference, ≈ 8 ms with the
	// AvgSeek/3 correction.
	tf2 := m.WriteTime(2)
	if tf2 < 7500*time.Microsecond || tf2 > 8500*time.Microsecond {
		t.Fatalf("TF2 = %v, want ≈8 ms", tf2)
	}
	noOS := m
	noOS.OSSeekFraction = 0
	raw := noOS.WriteTime(2)
	if raw < 4300*time.Microsecond || raw > 4800*time.Microsecond {
		t.Fatalf("raw TF2 = %v, want ≈4.5 ms", raw)
	}
}

func TestReadTimeForRecoveryRead(t *testing.T) {
	m := DefaultModel(0)
	// §5.4: a 64 KB (128-sector) read costs ≈ 60000/7200/2 + 128/63·(rot+1ms)
	// ≈ 4.17 + 128/63·9.33 ≈ 23.1 ms.
	tr := m.ReadTime(128)
	if tr < 22*time.Millisecond || tr > 25*time.Millisecond {
		t.Fatalf("128-sector read = %v, want ≈23 ms", tr)
	}
}

func TestWriteTimeMonotonicInSectors(t *testing.T) {
	m := DefaultModel(0)
	prop := func(a, b uint8) bool {
		x, y := int(a%100)+1, int(b%100)+1
		if x > y {
			x, y = y, x
		}
		return m.WriteTime(x) <= m.WriteTime(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSectorsZeroTime(t *testing.T) {
	m := DefaultModel(0)
	if m.WriteTime(0) != 0 || m.ReadTime(0) != 0 {
		t.Fatal("zero sectors should cost nothing")
	}
}

func TestFileReadWriteRoundTrip(t *testing.T) {
	d := NewDisk(DefaultModel(0))
	f := d.OpenFile("x")
	if _, err := f.WriteAt([]byte("hello"), 10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 10); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("got %q", buf)
	}
	if f.Size() != 15 {
		t.Fatalf("size %d", f.Size())
	}
}

func TestFileZeroFill(t *testing.T) {
	d := NewDisk(DefaultModel(0))
	f := d.OpenFile("x")
	_, _ = f.WriteAt([]byte("abc"), 100)
	buf := make([]byte, 10)
	_, _ = f.ReadAt(buf, 0)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
	// Reads past the end zero-fill the buffer.
	buf = bytes.Repeat([]byte{0xFF}, 8)
	_, _ = f.ReadAt(buf, 1000)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("past-end byte %d = %d", i, b)
		}
	}
}

func TestFileTruncate(t *testing.T) {
	d := NewDisk(DefaultModel(0))
	f := d.OpenFile("x")
	_, _ = f.WriteAt([]byte("abcdef"), 0)
	if err := f.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 3 {
		t.Fatalf("size %d", f.Size())
	}
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	_, _ = f.ReadAt(buf, 0)
	if string(buf[:3]) != "abc" || buf[5] != 0 {
		t.Fatalf("truncate-grow content %q", buf)
	}
}

func TestOpenFileIdentity(t *testing.T) {
	d := NewDisk(DefaultModel(0))
	a := d.OpenFile("same")
	b := d.OpenFile("same")
	if a != b {
		t.Fatal("OpenFile should return the same File for the same name")
	}
}

func TestNegativeOffsetsRejected(t *testing.T) {
	d := NewDisk(DefaultModel(0))
	f := d.OpenFile("x")
	if _, err := f.WriteAt([]byte("a"), -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative read offset accepted")
	}
	if err := f.Truncate(-1); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := NewDisk(DefaultModel(0))
	d.ChargeWrite(3, 100)
	d.ChargeWrite(2, 50)
	d.ChargeRead(128)
	st := d.Stats()
	if st.Writes != 2 || st.SectorsOut != 5 || st.WastedBytes != 150 {
		t.Fatalf("write stats %+v", st)
	}
	if st.Reads != 1 || st.SectorsIn != 128 {
		t.Fatalf("read stats %+v", st)
	}
	if st.WriteTime <= 0 || st.ReadTime <= 0 {
		t.Fatalf("times not accounted: %+v", st)
	}
}

func TestTimeScaleSleeps(t *testing.T) {
	// At scale 1e-3 a TF2 of ~8 ms should sleep ~8 µs; mainly we check it
	// does not sleep unscaled.
	d := NewDisk(DefaultModel(1e-3))
	start := time.Now()
	for i := 0; i < 10; i++ {
		d.ChargeWrite(2, 0)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("scaled charges took %v", elapsed)
	}
}

// TestChargesQueueOnOneHead: concurrent charges on one disk queue behind
// each other on its one head, so k of them take at least k service
// times. Were the queue dropped, the sleeps would overlap and k charges
// would finish in about one.
func TestChargesQueueOnOneHead(t *testing.T) {
	const k = 4
	m := DefaultModel(1)
	m.TimeScale = float64(2*time.Millisecond) / float64(m.WriteTime(1))
	one := time.Duration(float64(m.WriteTime(1)) * m.TimeScale) // about 2 ms
	d := NewDisk(m)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.ChargeWrite(1, 0)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < k*one {
		t.Fatalf("%d concurrent charges of %v each took %v, want at least %v", k, one, elapsed, k*one)
	}
}

func TestModelAccessor(t *testing.T) {
	m := DefaultModel(0.5)
	d := NewDisk(m)
	if d.Model().TimeScale != 0.5 || d.Model().RPM != 7200 {
		t.Fatalf("Model() = %+v", d.Model())
	}
	if d.OpenFile("n").Name() != "n" {
		t.Fatal("Name()")
	}
}

// TestReadAtIntoDirtyBuffer: ReadAt clears only the range it does not copy
// over, so a reused buffer must come back exactly as a fresh one would —
// the zero-filled gap before the first write and zeros past the end, data
// in between.
func TestReadAtIntoDirtyBuffer(t *testing.T) {
	d := NewDisk(DefaultModel(0))
	f := d.OpenFile("x")
	_, _ = f.WriteAt(bytes.Repeat([]byte{7}, 48), 16)
	for _, c := range []struct {
		off     int64
		n, want int // bytes asked for; ReadAt's count
	}{
		{0, 8, 8},    // wholly inside the gap
		{8, 16, 16},  // gap, then data
		{8, 100, 56}, // gap, data, past the end
		{32, 8, 8},   // data only
		{60, 16, 4},  // data, then past the end
		{64, 8, 0},   // at the end
		{200, 8, 0},  // far past the end
		{0, 0, 0},    // empty buffer
		{16, 48, 48}, // exactly the data
		{15, 50, 49}, // one byte of gap, all the data, one past the end
	} {
		buf := bytes.Repeat([]byte{0xEE}, c.n)
		got, err := f.ReadAt(buf, c.off)
		if err != nil || got != c.want {
			t.Fatalf("ReadAt(%d bytes at %d) = %d, %v; want %d", c.n, c.off, got, err, c.want)
		}
		for i, b := range buf {
			want := byte(0)
			if at := c.off + int64(i); at >= 16 && at < 64 {
				want = 7
			}
			if b != want {
				t.Fatalf("ReadAt(%d bytes at %d): byte %d is %#x, want %#x", c.n, c.off, i, b, want)
			}
		}
	}
}

// TestTruncatedBytesStayGone: a write past the end of a truncated file
// leaves the gap between the truncation point and the write zero, though
// the file's buffer had room to grow over the discarded bytes.
func TestTruncatedBytesStayGone(t *testing.T) {
	f := NewDisk(DefaultModel(0)).OpenFile("f")
	junk := bytes.Repeat([]byte{0xEE}, 1024)
	for _, off := range []int64{0, 1024} { // the second write leaves spare capacity
		if _, err := f.WriteAt(junk, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Truncate(600); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1}, 1536); err != nil {
		t.Fatal(err)
	}
	gap := make([]byte, 1536-600)
	f.ReadAt(gap, 600)
	if i := bytes.IndexByte(gap, 0xEE); i >= 0 {
		t.Fatalf("byte %d of the file reads 0xEE after truncation to 600 and a write at 1536, want 0", 600+i)
	}
}
