package logrec

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mspr/internal/dv"
)

var update = flag.Bool("update", false, "rewrite testdata/records.golden")

// record is what every log record type offers the tests below.
type record interface{ Encode() []byte }

// decode parses p as a payload of type t.
func decode(t Type, p []byte) (record, error) {
	switch t {
	case TReqReceive:
		return DecodeReqReceive(p)
	case TReplyReceive:
		return DecodeReplyReceive(p)
	case TSharedRead:
		return DecodeSharedRead(p)
	case TSharedWrite:
		return DecodeSharedWrite(p)
	case TSVCheckpoint:
		return DecodeSVCheckpoint(p)
	case TSessionCkpt:
		return DecodeSessionCheckpoint(p)
	case TSessionEnd:
		return DecodeSessionEnd(p)
	case TEOS:
		return DecodeEOS(p)
	case TRecoveryInfo:
		return DecodeRecoveryInfo(p)
	case TMSPCheckpoint:
		return DecodeMSPCheckpoint(p)
	case TSessionStart:
		return DecodeSessionStart(p)
	}
	return nil, fmt.Errorf("unknown type %v", t)
}

// formatCases covers every record type, with the edge cases a codec
// gets wrong: empty records, HasDV on and off, nil and empty maps,
// multi-entry slices and negative LSNs.
var formatCases = []struct {
	name string
	typ  Type
	rec  record
}{
	{"req", TReqReceive, ReqReceive{Session: "client#1", Seq: 7, Method: "method1", Arg: []byte("hello")}},
	{"req-dv", TReqReceive, ReqReceive{Session: "s2", Seq: 1 << 40, Method: "m", HasDV: true,
		DV: vec("msp1", 1, 10, "msp2", 3, 4096)}},
	{"req-empty", TReqReceive, ReqReceive{}},
	{"req-no-dv", TReqReceive, ReqReceive{Session: "session", Seq: 5, Method: "m", Arg: []byte("abcdef")}},
	{"reply-dv", TReplyReceive, ReplyReceive{Session: "s", OutSession: "s>m2#1", Seq: 9, Status: 1,
		Reply: []byte("out"), HasDV: true, DV: vec("x", 2, 77)}},
	{"reply-nodv", TReplyReceive, ReplyReceive{Session: "s", OutSession: "s>m2#1", Seq: 9, Reply: []byte("out")}},
	{"shared-read", TSharedRead, SharedRead{Session: "s", Var: "sv0", Value: []byte("val"), DV: vec("p", 1, 5)}},
	{"shared-write", TSharedWrite, SharedWrite{Session: "s", Var: "sv0", Value: []byte("new"),
		DV: vec("q", 3, 9), PrevWrite: -1}},
	{"sv-ckpt", TSVCheckpoint, SVCheckpoint{Var: "sv0", Value: []byte{0, 1, 2}}},
	{"session-ckpt", TSessionCkpt, SessionCheckpoint{Session: "sess-1", ClientAddr: "client-7", IntraDomain: true,
		Vars: map[string][]byte{"b": []byte("two"), "a": []byte("1"), "c": nil}, HasReply: true,
		ReplySeq: 12, ReplyStatus: 2, Reply: []byte("reply-bytes"), NextExpected: 13,
		Outgoing: []OutSessionState{{ID: "sess-1~m1~m2", Target: "m2", NextSeq: 4}, {ID: "sess-1~m1~m3", Target: "m3", NextSeq: 1}},
		DV:       vec("m2", 1, 99)}},
	{"session-ckpt-nil-vars", TSessionCkpt, SessionCheckpoint{Session: "s", NextExpected: 1}},
	{"session-ckpt-empty-vars", TSessionCkpt, SessionCheckpoint{Session: "s", Vars: map[string][]byte{}, DV: dv.Vector{}}},
	{"session-start", TSessionStart, SessionStart{Session: "s", ClientAddr: "c", IntraDomain: true}},
	{"session-end", TSessionEnd, SessionEnd{Session: "s9"}},
	{"session-end-short", TSessionEnd, SessionEnd{Session: "s"}},
	{"eos", TEOS, EOS{Session: "s", Orphan: -777}},
	{"recovery-info", TRecoveryInfo, RecoveryInfo{Process: "p", CrashedEpoch: 3, Recovered: 555}},
	{"msp-ckpt", TMSPCheckpoint, MSPCheckpoint{Epoch: 4, Knowledge: []dv.RecoveryInfo{
		{Process: "a", CrashedEpoch: 1, Recovered: 10}, {Process: "b", CrashedEpoch: 2, Recovered: -20}}}},
	{"msp-ckpt-empty", TMSPCheckpoint, MSPCheckpoint{}},
}

// TestRecordFormatPinned compares the encoding of every formatCases
// entry with testdata/records.golden, so a codec change that moves a
// single byte of the on-disk format fails here. Each golden payload
// must also decode, and re-encode to the same bytes after the input
// buffer is overwritten: decoders copy every byte field.
func TestRecordFormatPinned(t *testing.T) {
	var got strings.Builder
	for _, c := range formatCases {
		fmt.Fprintf(&got, "%s %v %x\n", c.name, c.typ, c.rec.Encode())
	}
	path := filepath.Join("testdata", "records.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("record encodings differ from %s (run with -update only for an intended format change)\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
	for _, c := range formatCases {
		p := c.rec.Encode()
		in := append([]byte(nil), p...)
		r, err := decode(c.typ, in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range in {
			in[i] = 0xAA
		}
		if again := r.Encode(); !bytes.Equal(again, p) {
			t.Fatalf("%s: decoded record re-encodes to %x, want %x", c.name, again, p)
		}
	}
}

// TestCorruptPayloadsRejected feeds every decoder every strict prefix
// of its golden payloads and each payload with one trailing byte: all
// must be errors, none may panic.
func TestCorruptPayloadsRejected(t *testing.T) {
	for _, c := range formatCases {
		full := c.rec.Encode()
		for cut := 0; cut < len(full); cut++ {
			if _, err := decode(c.typ, full[:cut]); err == nil {
				t.Errorf("%s: truncation at %d of %d accepted", c.name, cut, len(full))
			}
		}
		if _, err := decode(c.typ, append(full, 0xFF)); err == nil {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
	}
}

// TestHotRecordAllocs pins the allocations of the records the request
// path writes: encode then Recycle, and decode. The one encode allocation
// is the DV's sorted entry list. A wrapper that moves the record or the
// coder to the heap (a generic or interface-typed walker does) shows here
// first.
func TestHotRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	arg, v := make([]byte, 100), vec("msp1", 1, 10, "msp2", 1, 20)
	req := ReqReceive{Session: "client#1", Seq: 7, Method: "method1", Arg: arg, HasDV: true, DV: v}
	reply := ReplyReceive{Session: "client#1", OutSession: "msp1>msp2#1", Seq: 7, Reply: arg, HasDV: true, DV: v}
	read := SharedRead{Session: "client#1", Var: "sv0", Value: arg, DV: v}
	write := SharedWrite{Session: "client#1", Var: "sv0", Value: arg, DV: v, PrevWrite: 4096}
	reqP, replyP, readP, writeP := req.Encode(), reply.Encode(), read.Encode(), write.Encode()
	for _, c := range []struct {
		name           string
		encode, decode func()
		want           [2]float64
	}{
		{"ReqReceive", func() { Recycle(req.Encode()) }, func() { _, _ = DecodeReqReceive(reqP) }, [2]float64{1, 7}},
		{"ReplyReceive", func() { Recycle(reply.Encode()) }, func() { _, _ = DecodeReplyReceive(replyP) }, [2]float64{1, 7}},
		{"SharedRead", func() { Recycle(read.Encode()) }, func() { _, _ = DecodeSharedRead(readP) }, [2]float64{1, 7}},
		{"SharedWrite", func() { Recycle(write.Encode()) }, func() { _, _ = DecodeSharedWrite(writeP) }, [2]float64{1, 7}},
	} {
		got := [2]float64{testing.AllocsPerRun(1000, c.encode), testing.AllocsPerRun(1000, c.decode)}
		if got != c.want {
			t.Errorf("%s: %v allocs to encode and %v to decode, want %v and %v", c.name, got[0], got[1], c.want[0], c.want[1])
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the decoder of every type: none
// may panic, and a payload a decoder accepts must re-encode to a record
// that decodes equal.
func FuzzDecode(f *testing.F) {
	for _, c := range formatCases {
		f.Add(byte(c.typ), c.rec.Encode())
	}
	f.Fuzz(func(t *testing.T, typ byte, p []byte) {
		r, err := decode(Type(typ), p)
		if err != nil {
			return
		}
		again, err := decode(Type(typ), r.Encode())
		if err != nil {
			t.Fatalf("%v: re-encoded record does not decode: %v", Type(typ), err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("%v: %+v re-decodes as %+v", Type(typ), r, again)
		}
	})
}
