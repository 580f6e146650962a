package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"mspr/internal/simdisk"
)

// Record framing: [type:1][payloadLen:u32][payload][crc32:u32] where the
// CRC covers type byte and payload. Type 0 marks sector padding: a flush
// block is zero-filled up to the next sector boundary of its segment's
// file, so a reader that meets a zero type byte resumes at that boundary.
// Records are packed — the next flush continues mid-sector, right after
// the last record — so padding only survives where a reopened or
// tail-repaired log restarted its appends at a sector boundary.
const (
	frameHeaderLen = 1 + 4
	frameOverhead  = frameHeaderLen + 4
	sectorSize     = simdisk.SectorSize
)

// FrameOverhead is the on-log framing cost of one record beyond its
// payload. Consumers that account log consumption per record (the
// crash-recovery analysis scan, session checkpoint thresholds) add it to
// the payload length instead of duplicating the framing layout.
const FrameOverhead = frameOverhead

func appendFrame(buf []byte, typ byte, payload []byte) []byte {
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	// crc32.Update avoids allocating a hasher per record on the append
	// hot path (the type-byte slice stays on the stack).
	crc := crc32.Update(0, crc32.IEEETable, []byte{typ})
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf
}

// frameSize returns the on-log size of the frame that starts with the
// frameHeaderLen bytes hdr.
func frameSize(hdr []byte) int64 {
	return int64(binary.LittleEndian.Uint32(hdr[1:frameHeaderLen])) + frameOverhead
}

var errBadCRC = errors.New("wal: bad crc at record")

// unparsable reports whether err is parseFrame's verdict that the bytes
// it was given are not a frame.
func unparsable(err error) bool { return err == ErrNotFound || err == errBadCRC }

func parseFrame(b []byte) (typ byte, payload []byte, size int, err error) {
	if len(b) < frameOverhead {
		return 0, nil, 0, ErrNotFound
	}
	typ = b[0]
	if typ == 0 {
		return 0, nil, 0, ErrNotFound
	}
	size64 := frameSize(b)
	if size64 > int64(len(b)) {
		return 0, nil, 0, ErrNotFound
	}
	n := int(size64) - frameOverhead
	payload = b[frameHeaderLen : frameHeaderLen+n]
	want := binary.LittleEndian.Uint32(b[frameHeaderLen+n:])
	crc := crc32.Update(0, crc32.IEEETable, b[:1])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != want {
		return 0, nil, 0, errBadCRC
	}
	return typ, payload, frameOverhead + n, nil
}
