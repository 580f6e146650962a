package logrec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mspr/internal/dv"
	"mspr/internal/wal"
)

func vec(pairs ...any) dv.Vector {
	v := dv.Vector{}
	for i := 0; i+2 < len(pairs)+1 && i+2 <= len(pairs); i += 3 {
		v = v.Set(dv.ProcessID(pairs[i].(string)),
			dv.StateID{Epoch: uint32(pairs[i+1].(int)), LSN: int64(pairs[i+2].(int))})
	}
	return v
}

func TestReqReceiveRoundTrip(t *testing.T) {
	for _, r := range []ReqReceive{
		{Session: "s1", Seq: 1, Method: "m", Arg: []byte("hello")},
		{Session: "s2", Seq: 42, Method: "method1", Arg: nil, HasDV: true, DV: vec("p", 1, 10)},
		{Session: "", Seq: 0, Method: "", Arg: []byte{}},
	} {
		got, err := DecodeReqReceive(r.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if got.Session != r.Session || got.Seq != r.Seq || got.Method != r.Method ||
			string(got.Arg) != string(r.Arg) || got.HasDV != r.HasDV || !got.DV.Equal(r.DV) {
			t.Fatalf("round trip: got %+v, want %+v", got, r)
		}
	}
}

func TestReplyReceiveRoundTrip(t *testing.T) {
	r := ReplyReceive{Session: "s", OutSession: "s~a~b", Seq: 9, Status: 1,
		Reply: []byte("out"), HasDV: true, DV: vec("x", 2, 77)}
	got, err := DecodeReplyReceive(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.OutSession != r.OutSession || got.Seq != r.Seq || got.Status != r.Status ||
		string(got.Reply) != "out" || !got.DV.Equal(r.DV) {
		t.Fatalf("got %+v", got)
	}
}

func TestSharedReadWriteRoundTrip(t *testing.T) {
	rr := SharedRead{Session: "s", Var: "v", Value: []byte("val"), DV: vec("p", 1, 5)}
	gotR, err := DecodeSharedRead(rr.Encode())
	if err != nil || gotR.Var != "v" || string(gotR.Value) != "val" || !gotR.DV.Equal(rr.DV) {
		t.Fatalf("read round trip: %+v, %v", gotR, err)
	}
	rw := SharedWrite{Session: "s", Var: "v", Value: []byte("new"), DV: vec("q", 3, 9), PrevWrite: 1234}
	gotW, err := DecodeSharedWrite(rw.Encode())
	if err != nil || gotW.PrevWrite != 1234 || string(gotW.Value) != "new" {
		t.Fatalf("write round trip: %+v, %v", gotW, err)
	}
}

func TestSessionCheckpointRoundTrip(t *testing.T) {
	r := SessionCheckpoint{
		Session:      "sess-1",
		ClientAddr:   "client-7",
		IntraDomain:  true,
		Vars:         map[string][]byte{"a": []byte("1"), "b": []byte("two")},
		HasReply:     true,
		ReplySeq:     12,
		ReplyStatus:  0,
		Reply:        []byte("reply-bytes"),
		NextExpected: 13,
		Outgoing: []OutSessionState{
			{ID: "sess-1~m1~m2", Target: "m2", NextSeq: 4},
			{ID: "sess-1~m1~m3", Target: "m3", NextSeq: 1},
		},
		DV: vec("m2", 1, 99),
	}
	got, err := DecodeSessionCheckpoint(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Vars, r.Vars) || got.NextExpected != 13 ||
		!reflect.DeepEqual(got.Outgoing, r.Outgoing) || !got.DV.Equal(r.DV) ||
		got.ReplySeq != 12 || string(got.Reply) != "reply-bytes" ||
		!got.IntraDomain || got.ClientAddr != "client-7" {
		t.Fatalf("got %+v", got)
	}
}

func TestSessionCheckpointNoReply(t *testing.T) {
	r := SessionCheckpoint{Session: "s", Vars: map[string][]byte{}, NextExpected: 1}
	got, err := DecodeSessionCheckpoint(r.Encode())
	if err != nil || got.HasReply {
		t.Fatalf("%+v %v", got, err)
	}
}

func TestSmallRecordsRoundTrip(t *testing.T) {
	if got, err := DecodeSessionStart(SessionStart{Session: "s", ClientAddr: "c", IntraDomain: true}.Encode()); err != nil || got.Session != "s" || !got.IntraDomain {
		t.Fatalf("SessionStart: %+v %v", got, err)
	}
	if got, err := DecodeSessionEnd(SessionEnd{Session: "s9"}.Encode()); err != nil || got.Session != "s9" {
		t.Fatalf("SessionEnd: %+v %v", got, err)
	}
	if got, err := DecodeEOS(EOS{Session: "s", Orphan: 777}.Encode()); err != nil || got.Orphan != 777 {
		t.Fatalf("EOS: %+v %v", got, err)
	}
	if got, err := DecodeRecoveryInfo(RecoveryInfo{Process: "p", CrashedEpoch: 3, Recovered: 555}.Encode()); err != nil || got.CrashedEpoch != 3 || got.Recovered != 555 {
		t.Fatalf("RecoveryInfo: %+v %v", got, err)
	}
	if got, err := DecodeSVCheckpoint(SVCheckpoint{Var: "v", Value: []byte("x")}.Encode()); err != nil || got.Var != "v" {
		t.Fatalf("SVCheckpoint: %+v %v", got, err)
	}
}

func TestMSPCheckpointRoundTrip(t *testing.T) {
	r := MSPCheckpoint{
		Epoch: 4,
		Knowledge: []dv.RecoveryInfo{
			{Process: "a", CrashedEpoch: 1, Recovered: 10},
			{Process: "b", CrashedEpoch: 2, Recovered: 20},
		},
	}
	got, err := DecodeMSPCheckpoint(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("got %+v, want %+v", got, r)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b := append(SessionEnd{Session: "s"}.Encode(), 0xFF)
	if _, err := DecodeSessionEnd(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := ReqReceive{Session: "session", Seq: 5, Method: "m", Arg: []byte("abcdef")}.Encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeReqReceive(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Property: ReqReceive encoding round-trips for arbitrary content.
func TestReqReceiveProperty(t *testing.T) {
	prop := func(session, method string, seq uint64, arg []byte, hasDV bool, seed int64) bool {
		r := ReqReceive{Session: session, Seq: seq, Method: method, Arg: arg, HasDV: hasDV}
		if hasDV {
			rng := rand.New(rand.NewSource(seed))
			r.DV = dv.Vector{}.Set("p", dv.StateID{Epoch: uint32(rng.Intn(10)), LSN: rng.Int63n(1 << 40)})
		}
		got, err := DecodeReqReceive(r.Encode())
		if err != nil {
			return false
		}
		return got.Session == r.Session && got.Seq == r.Seq && got.Method == r.Method &&
			string(got.Arg) == string(r.Arg) && got.HasDV == r.HasDV && got.DV.Equal(r.DV)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SharedWrite round-trips, preserving the backward chain LSN.
func TestSharedWriteProperty(t *testing.T) {
	prop := func(name string, value []byte, prev int64) bool {
		r := SharedWrite{Session: "s", Var: name, Value: value, PrevWrite: wal.LSN(prev)}
		got, err := DecodeSharedWrite(r.Encode())
		return err == nil && got.Var == name && string(got.Value) == string(value) && got.PrevWrite == wal.LSN(prev)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeStrings(t *testing.T) {
	for typ := TReqReceive; typ <= TSessionStart; typ++ {
		if s := typ.String(); s == "" || s[0] == 'T' && len(s) > 4 && s[:4] == "Type" {
			t.Fatalf("type %d has no mnemonic: %q", typ, s)
		}
	}
	if Type(200).String() != "Type(200)" {
		t.Fatal("unknown type formatting")
	}
}
