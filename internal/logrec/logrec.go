// Package logrec defines the typed records an MSP writes to its single
// physical log, and their binary encodings. One record type exists for
// every source of nondeterminism the paper logs (§3): message receipts
// (requests and replies, with the sender's dependency vector when the
// message stayed inside the service domain), shared-variable reads and
// writes (value logging, Fig. 8), the three kinds of checkpoints
// (session, shared variable, fuzzy MSP checkpoint, §3.2-3.4), session
// lifecycle marks, end-of-skip (EOS) records written by orphan recovery
// (§4.1), and peer recovery information (§4.3).
package logrec

import (
	"fmt"

	"mspr/internal/dv"
	"mspr/internal/wal"
)

// Type tags a log record. Type 0 is reserved by the WAL for padding.
type Type byte

// Log record types.
const (
	TReqReceive    Type = 1  // a request arrived on a session
	TReplyReceive  Type = 2  // a reply arrived on an outgoing session
	TSharedRead    Type = 3  // a session read a shared variable (value logged)
	TSharedWrite   Type = 4  // a session wrote a shared variable (chained)
	TSVCheckpoint  Type = 5  // shared-variable checkpoint (breaks the chain)
	TSessionCkpt   Type = 6  // session checkpoint
	TSessionEnd    Type = 7  // session ended; its log records are dead
	TEOS           Type = 8  // end-of-skip marker written by orphan recovery
	TRecoveryInfo  Type = 9  // a peer's broadcast recovered state number
	TMSPCheckpoint Type = 10 // fuzzy MSP checkpoint
	TSessionStart  Type = 11 // a session was created
)

// String returns a short mnemonic for the record type.
func (t Type) String() string {
	switch t {
	case TReqReceive:
		return "ReqReceive"
	case TReplyReceive:
		return "ReplyReceive"
	case TSharedRead:
		return "SharedRead"
	case TSharedWrite:
		return "SharedWrite"
	case TSVCheckpoint:
		return "SVCheckpoint"
	case TSessionCkpt:
		return "SessionCkpt"
	case TSessionEnd:
		return "SessionEnd"
	case TEOS:
		return "EOS"
	case TRecoveryInfo:
		return "RecoveryInfo"
	case TMSPCheckpoint:
		return "MSPCheckpoint"
	case TSessionStart:
		return "SessionStart"
	}
	return fmt.Sprintf("Type(%d)", byte(t))
}

// ReqReceive records the receipt of a request over a session. For
// intra-domain senders the sender session's dependency vector is attached
// (Fig. 7); requests from end clients or across domains carry none.
type ReqReceive struct {
	Session string
	Seq     uint64
	Method  string
	Arg     []byte
	HasDV   bool
	DV      dv.Vector
}

// Encode serializes the record payload.
func (r ReqReceive) Encode() []byte {
	e := newEnc()
	e.str(r.Session)
	e.u64(r.Seq)
	e.str(r.Method)
	e.bytes(r.Arg)
	e.boolv(r.HasDV)
	if r.HasDV {
		e.vec(r.DV)
	}
	return e.b
}

// DecodeReqReceive parses a TReqReceive payload.
func DecodeReqReceive(p []byte) (ReqReceive, error) {
	d := dec{b: p}
	var r ReqReceive
	r.Session = d.str()
	r.Seq = d.u64()
	r.Method = d.str()
	r.Arg = d.bytes()
	r.HasDV = d.boolv()
	if r.HasDV {
		r.DV = d.vec()
	}
	return r, d.done("ReqReceive")
}

// ReplyReceive records the receipt of a reply on an outgoing session
// (OutSession) owned by Session. Status carries the application-level
// result kind so replay reproduces errors as faithfully as successes.
type ReplyReceive struct {
	Session    string
	OutSession string
	Seq        uint64
	Status     byte
	Reply      []byte
	HasDV      bool
	DV         dv.Vector
}

// Encode serializes the record payload.
func (r ReplyReceive) Encode() []byte {
	e := newEnc()
	e.str(r.Session)
	e.str(r.OutSession)
	e.u64(r.Seq)
	e.u8(r.Status)
	e.bytes(r.Reply)
	e.boolv(r.HasDV)
	if r.HasDV {
		e.vec(r.DV)
	}
	return e.b
}

// DecodeReplyReceive parses a TReplyReceive payload.
func DecodeReplyReceive(p []byte) (ReplyReceive, error) {
	d := dec{b: p}
	var r ReplyReceive
	r.Session = d.str()
	r.OutSession = d.str()
	r.Seq = d.u64()
	r.Status = d.u8()
	r.Reply = d.bytes()
	r.HasDV = d.boolv()
	if r.HasDV {
		r.DV = d.vec()
	}
	return r, d.done("ReplyReceive")
}

// SharedRead records a session reading a shared variable: the value and
// the variable's DV are logged so a recovering reader obtains the value
// from the log without involving the writer (value logging, §3.3).
type SharedRead struct {
	Session string
	Var     string
	Value   []byte
	DV      dv.Vector
}

// Encode serializes the record payload.
func (r SharedRead) Encode() []byte {
	e := newEnc()
	e.str(r.Session)
	e.str(r.Var)
	e.bytes(r.Value)
	e.vec(r.DV)
	return e.b
}

// DecodeSharedRead parses a TSharedRead payload.
func DecodeSharedRead(p []byte) (SharedRead, error) {
	d := dec{b: p}
	var r SharedRead
	r.Session = d.str()
	r.Var = d.str()
	r.Value = d.bytes()
	r.DV = d.vec()
	return r, d.done("SharedRead")
}

// SharedWrite records a session writing a shared variable: the new value,
// the writer session's DV, and the LSN of the previous write record for
// the same variable — the backward chain followed by shared-state orphan
// recovery (§4.2). PrevWrite may point at a TSVCheckpoint, where the
// chain breaks.
type SharedWrite struct {
	Session   string
	Var       string
	Value     []byte
	DV        dv.Vector
	PrevWrite wal.LSN
}

// Encode serializes the record payload.
func (r SharedWrite) Encode() []byte {
	e := newEnc()
	e.str(r.Session)
	e.str(r.Var)
	e.bytes(r.Value)
	e.vec(r.DV)
	e.i64(int64(r.PrevWrite))
	return e.b
}

// DecodeSharedWrite parses a TSharedWrite payload.
func DecodeSharedWrite(p []byte) (SharedWrite, error) {
	d := dec{b: p}
	var r SharedWrite
	r.Session = d.str()
	r.Var = d.str()
	r.Value = d.bytes()
	r.DV = d.vec()
	r.PrevWrite = wal.LSN(d.i64())
	return r, d.done("SharedWrite")
}

// SVCheckpoint records a shared-variable checkpoint. The checkpointed
// value can never be an orphan (a distributed log flush per the
// variable's DV precedes it), so the backward chain breaks here (Fig. 9).
type SVCheckpoint struct {
	Var   string
	Value []byte
}

// Encode serializes the record payload.
func (r SVCheckpoint) Encode() []byte {
	e := newEnc()
	e.str(r.Var)
	e.bytes(r.Value)
	return e.b
}

// DecodeSVCheckpoint parses a TSVCheckpoint payload.
func DecodeSVCheckpoint(p []byte) (SVCheckpoint, error) {
	d := dec{b: p}
	var r SVCheckpoint
	r.Var = d.str()
	r.Value = d.bytes()
	return r, d.done("SVCheckpoint")
}

// OutSessionState is the recovery-relevant state of one outgoing session,
// embedded in a session checkpoint: the next available request sequence
// number (§3.2).
type OutSessionState struct {
	ID      string
	Target  string
	NextSeq uint64
}

// SessionCheckpoint records everything needed to re-initialize a session:
// its session variables, the buffered latest reply, the next expected
// request sequence number, every outgoing session's next available
// sequence number, and the session's DV. It deliberately contains no
// control state (stacks, program counters) — checkpoints are taken only
// between requests (§3.2).
type SessionCheckpoint struct {
	Session      string
	ClientAddr   string
	IntraDomain  bool
	Vars         map[string][]byte
	HasReply     bool
	ReplySeq     uint64
	ReplyStatus  byte
	Reply        []byte
	NextExpected uint64
	Outgoing     []OutSessionState
	DV           dv.Vector
}

// Encode serializes the record payload.
func (r SessionCheckpoint) Encode() []byte {
	e := newEnc()
	e.str(r.Session)
	e.str(r.ClientAddr)
	e.boolv(r.IntraDomain)
	e.strmap(r.Vars)
	e.boolv(r.HasReply)
	if r.HasReply {
		e.u64(r.ReplySeq)
		e.u8(r.ReplyStatus)
		e.bytes(r.Reply)
	}
	e.u64(r.NextExpected)
	e.u64(uint64(len(r.Outgoing)))
	for _, o := range r.Outgoing {
		e.str(o.ID)
		e.str(o.Target)
		e.u64(o.NextSeq)
	}
	e.vec(r.DV)
	return e.b
}

// DecodeSessionCheckpoint parses a TSessionCkpt payload.
func DecodeSessionCheckpoint(p []byte) (SessionCheckpoint, error) {
	d := dec{b: p}
	var r SessionCheckpoint
	r.Session = d.str()
	r.ClientAddr = d.str()
	r.IntraDomain = d.boolv()
	r.Vars = d.strmap()
	r.HasReply = d.boolv()
	if r.HasReply {
		r.ReplySeq = d.u64()
		r.ReplyStatus = d.u8()
		r.Reply = d.bytes()
	}
	r.NextExpected = d.u64()
	n := d.u64()
	for i := uint64(0); i < n && d.err == nil; i++ {
		var o OutSessionState
		o.ID = d.str()
		o.Target = d.str()
		o.NextSeq = d.u64()
		r.Outgoing = append(r.Outgoing, o)
	}
	r.DV = d.vec()
	return r, d.done("SessionCheckpoint")
}

// SessionStart records the creation of a session, so crash recovery can
// rebuild the session shell even before its first checkpoint.
type SessionStart struct {
	Session     string
	ClientAddr  string
	IntraDomain bool
}

// Encode serializes the record payload.
func (r SessionStart) Encode() []byte {
	e := newEnc()
	e.str(r.Session)
	e.str(r.ClientAddr)
	e.boolv(r.IntraDomain)
	return e.b
}

// DecodeSessionStart parses a TSessionStart payload.
func DecodeSessionStart(p []byte) (SessionStart, error) {
	d := dec{b: p}
	var r SessionStart
	r.Session = d.str()
	r.ClientAddr = d.str()
	r.IntraDomain = d.boolv()
	return r, d.done("SessionStart")
}

// SessionEnd marks the end of a session; its position stream is discarded
// and its earlier log records become dead (§3.2).
type SessionEnd struct {
	Session string
}

// Encode serializes the record payload.
func (r SessionEnd) Encode() []byte {
	e := newEnc()
	e.str(r.Session)
	return e.b
}

// DecodeSessionEnd parses a TSessionEnd payload.
func DecodeSessionEnd(p []byte) (SessionEnd, error) {
	d := dec{b: p}
	var r SessionEnd
	r.Session = d.str()
	return r, d.done("SessionEnd")
}

// EOS (end-of-skip) is written when session orphan recovery terminates:
// it points back at the orphan log record where replay stopped. Log
// records in [Orphan, EOS] are invisible to any future recovery of the
// session (§4.1).
type EOS struct {
	Session string
	Orphan  wal.LSN
}

// Encode serializes the record payload.
func (r EOS) Encode() []byte {
	e := newEnc()
	e.str(r.Session)
	e.i64(int64(r.Orphan))
	return e.b
}

// DecodeEOS parses a TEOS payload.
func DecodeEOS(p []byte) (EOS, error) {
	d := dec{b: p}
	var r EOS
	r.Session = d.str()
	r.Orphan = wal.LSN(d.i64())
	return r, d.done("EOS")
}

// PeekSession returns the leading session ID of a payload without
// decoding the rest of the record. Every session-owned record type
// (TReqReceive, TReplyReceive, TSharedRead, TSharedWrite, TSessionCkpt,
// TSessionStart, TSessionEnd, TEOS) encodes Session as its first field
// precisely so the crash-recovery analysis scan can route the record to
// its position stream without materializing values, vectors or variable
// maps.
func PeekSession(p []byte) (string, error) {
	d := dec{b: p}
	s := d.str()
	return s, d.err
}

// PeekSessionVar returns the leading (Session, Var) pair of a
// TSharedWrite or TSharedRead payload — the two routing keys the
// analysis scan needs — without decoding the value or the DV.
func PeekSessionVar(p []byte) (session, name string, err error) {
	d := dec{b: p}
	session = d.str()
	name = d.str()
	return session, name, d.err
}

// PeekVar returns the leading variable name of a TSVCheckpoint payload
// without decoding the checkpointed value.
func PeekVar(p []byte) (string, error) {
	d := dec{b: p}
	s := d.str()
	return s, d.err
}

// RecoveryInfo records a peer's broadcast recovery message so that the
// MSP's knowledge of recovered state numbers survives its own crash.
type RecoveryInfo struct {
	Process      string
	CrashedEpoch uint32
	Recovered    wal.LSN
}

// Encode serializes the record payload.
func (r RecoveryInfo) Encode() []byte {
	e := newEnc()
	e.str(r.Process)
	e.u32(r.CrashedEpoch)
	e.i64(int64(r.Recovered))
	return e.b
}

// DecodeRecoveryInfo parses a TRecoveryInfo payload.
func DecodeRecoveryInfo(p []byte) (RecoveryInfo, error) {
	d := dec{b: p}
	var r RecoveryInfo
	r.Process = d.str()
	r.CrashedEpoch = d.u32()
	r.Recovered = wal.LSN(d.i64())
	return r, d.done("RecoveryInfo")
}

// MSPCheckpoint is the fuzzy MSP checkpoint (§3.4): recovered state
// numbers of peers in the service domain. The paper also lists the most
// recent checkpoint LSN of every session and shared variable; recovery
// uses only their minimum — where the analysis scan starts — and that is
// the head recorded in the log anchor beside this record's LSN.
type MSPCheckpoint struct {
	Epoch     uint32
	Knowledge []dv.RecoveryInfo
}

// Encode serializes the record payload.
func (r MSPCheckpoint) Encode() []byte {
	e := newEnc()
	e.u32(r.Epoch)
	e.u64(uint64(len(r.Knowledge)))
	for _, k := range r.Knowledge {
		e.str(string(k.Process))
		e.u32(k.CrashedEpoch)
		e.i64(k.Recovered)
	}
	return e.b
}

// DecodeMSPCheckpoint parses a TMSPCheckpoint payload.
func DecodeMSPCheckpoint(p []byte) (MSPCheckpoint, error) {
	d := dec{b: p}
	var r MSPCheckpoint
	r.Epoch = d.u32()
	n := d.u64()
	for i := uint64(0); i < n && d.err == nil; i++ {
		var k dv.RecoveryInfo
		k.Process = dv.ProcessID(d.str())
		k.CrashedEpoch = d.u32()
		k.Recovered = d.i64()
		r.Knowledge = append(r.Knowledge, k)
	}
	return r, d.done("MSPCheckpoint")
}
