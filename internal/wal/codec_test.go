package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mspr/internal/simdisk"
)

// framePayloads are the sizes the frame codec is exercised at: empty, one
// byte, a frame that exactly fills a sector, a payload of a sector, and
// the largest block the paper writes.
var framePayloads = []int{0, 1, sectorSize - frameOverhead, sectorSize, 64 << 10}

func testPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + n)
	}
	return p
}

// testSlots are anchor slots with an empty, a small and a full directory.
func testSlots() [][]byte {
	var slots [][]byte
	for _, n := range []int{0, 3, maxDirEntries} {
		dir := make([]dirEntry, n)
		for i := range dir {
			dir[i] = dirEntry{index: uint64(i + 1), base: LSN(headerSize + i*4096)}
		}
		slots = append(slots, encodeAnchorSlot(Anchor{Epoch: 3, CheckpointLSN: 9000, Head: 4608}, uint64(n+1), dir))
	}
	return slots
}

func TestFrameCodecRoundTrip(t *testing.T) {
	for _, n := range framePayloads {
		payload := testPayload(n)
		frame := appendFrame([]byte("prefix"), 7, payload)[len("prefix"):]
		if len(frame) != n+FrameOverhead || frameSize(frame) != int64(len(frame)) {
			t.Fatalf("payload %d: frame is %d bytes, frameSize says %d", n, len(frame), frameSize(frame))
		}
		// Trailing bytes (the next frame, padding) are not part of the frame.
		typ, got, size, err := parseFrame(append(frame[:len(frame):len(frame)], 0xff, 0))
		if err != nil || typ != 7 || size != len(frame) || !bytes.Equal(got, payload) {
			t.Fatalf("payload %d: parsed typ %d size %d err %v", n, typ, size, err)
		}
		for cut := 0; cut < len(frame); cut += 1 + len(frame)/64 {
			if _, _, _, err := parseFrame(frame[:cut]); !unparsable(err) {
				t.Fatalf("payload %d: a %d-byte prefix of a %d-byte frame parsed (err %v)", n, cut, len(frame), err)
			}
		}
	}
}

// eachBitFlip calls check with b after flipping each of its bits in turn.
func eachBitFlip(b []byte, check func(bit int)) {
	for bit := 0; bit < len(b)*8; bit++ {
		b[bit/8] ^= 1 << (bit % 8)
		check(bit)
		b[bit/8] ^= 1 << (bit % 8)
	}
}

func TestFrameCodecRejectsEveryBitFlip(t *testing.T) {
	for _, n := range framePayloads[:4] { // 64 KB × 8 flips × CRC is minutes, and adds no case
		frame := appendFrame(nil, 7, testPayload(n))
		eachBitFlip(frame, func(bit int) {
			// A flip in the length field may describe a shorter frame whose
			// CRC would have to match by accident; it never does here.
			if typ, _, _, err := parseFrame(frame); err == nil {
				t.Fatalf("payload %d: frame with bit %d flipped parsed as type %d", n, bit, typ)
			}
		})
	}
}

func TestAnchorSlotCodec(t *testing.T) {
	for _, slot := range testSlots() {
		a, dir, seq, ok := parseAnchorSlot(slot)
		if !ok || a != (Anchor{Epoch: 3, CheckpointLSN: 9000, Head: 4608}) || seq != uint64(len(dir)+1) {
			t.Fatalf("round trip: %+v seq %d ok %v", a, seq, ok)
		}
		if again := encodeAnchorSlot(a, seq, dir); !bytes.Equal(again, slot) {
			t.Fatalf("%d-entry slot does not re-encode to the same bytes", len(dir))
		}
		// A torn slot write (FPAnchorCrash) persists a strict prefix of the
		// encoded slot: none may validate, over zeros or alone.
		used := anchorSlotLen(len(dir))
		for cut := 0; cut < used; cut++ {
			torn := make([]byte, len(slot))
			copy(torn, slot[:cut])
			if _, _, _, ok := parseAnchorSlot(torn); ok {
				t.Fatalf("%d-entry slot: %d of %d bytes over zeros validates", len(dir), cut, used)
			}
			if _, _, _, ok := parseAnchorSlot(slot[:cut]); ok {
				t.Fatalf("%d-entry slot: its first %d of %d bytes validate", len(dir), cut, used)
			}
		}
		eachBitFlip(slot[:used], func(bit int) {
			if _, _, _, ok := parseAnchorSlot(slot); ok {
				t.Fatalf("%d-entry slot with bit %d flipped validates", len(dir), bit)
			}
		})
	}
}

func FuzzParseFrame(f *testing.F) {
	for _, n := range framePayloads {
		frame := appendFrame(nil, 1, testPayload(n))
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(append([]byte{0}, frame...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, size, err := parseFrame(b)
		if err == nil && (typ == 0 || size > len(b) || len(payload) != size-frameOverhead) {
			t.Fatalf("parsed type %d, %d-byte payload, size %d out of %d bytes", typ, len(payload), size, len(b))
		}
		if err != nil && (!unparsable(err) || payload != nil) {
			t.Fatalf("failed with %v and a %d-byte payload", err, len(payload))
		}
	})
}

func FuzzParseAnchorSlot(f *testing.F) {
	for _, slot := range testSlots() {
		f.Add(slot)
		f.Add(slot[:anchorFixedLen+2])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if _, dir, _, ok := parseAnchorSlot(b); ok && anchorSlotLen(len(dir)) > len(b) {
			t.Fatalf("a %d-entry directory out of %d bytes", len(dir), len(b))
		}
	})
}

// TestOnDiskFormatPinned runs a fixed script — appends, flushes,
// rotations, two anchor writes, a head truncation — and compares every
// byte it left on the disk with a digest. The digest was first taken on
// commit 7ed56c3, before the log was split into layers, and re-taken once
// when flushes stopped padding past the log's partial last sector; the
// segments shrank from 2 KB to 1 KB then, so that the packed script still
// rotates (four times, each with a partial sector left behind) and
// reclaims.
func TestOnDiskFormatPinned(t *testing.T) {
	disk := simdisk.NewDisk(simdisk.DefaultModel(0))
	l, err := Open(disk, "pin", Config{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var lsns []LSN
	for i := 0; i < 12; i++ {
		lsn, err := l.Append(byte(1+i%3), testPayload(100+37*i))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		if i%2 == 1 {
			if err := l.Flush(lsn); err != nil {
				t.Fatal(err)
			}
		}
		if i == 5 || i == 9 {
			if err := l.WriteAnchor(Anchor{Epoch: uint32(i), CheckpointLSN: lsn, Head: lsns[i-3]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.TruncateHead(lsns[6]); err != nil {
		t.Fatal(err)
	}
	if segs := l.Segments(); len(segs) < 2 || segs[0].Index == 1 {
		t.Fatalf("the script must rotate and reclaim; live segments: %+v", segs)
	}
	h := sha256.New()
	for _, name := range disk.List("pin.") {
		f := disk.OpenFile(name)
		data := make([]byte, f.Size())
		if _, err := f.ReadAt(data, 0); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	const want = "f965d89fb462a0cb0e688463d3ec23723012d07c10100554e51bf4bd8f6f9ee3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("on-disk bytes hash to %s, want %s: the segment or anchor format changed", got, want)
	}
}
