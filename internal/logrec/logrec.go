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

// walk lists the record's fields in payload order. Encode and the
// type's Decode function both run it, so they cannot disagree; every
// record type below has one.
func (r *ReqReceive) walk(c *Coder) {
	c.Str(&r.Session)
	c.U64(&r.Seq)
	c.Str(&r.Method)
	c.Bytes(&r.Arg)
	c.Bool(&r.HasDV)
	if r.HasDV {
		c.Vec(&r.DV)
	}
}

// Encode serializes the record payload.
func (r ReqReceive) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeReqReceive parses a TReqReceive payload.
func DecodeReqReceive(p []byte) (r ReqReceive, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("ReqReceive")
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

func (r *ReplyReceive) walk(c *Coder) {
	c.Str(&r.Session)
	c.Str(&r.OutSession)
	c.U64(&r.Seq)
	c.U8(&r.Status)
	c.Bytes(&r.Reply)
	c.Bool(&r.HasDV)
	if r.HasDV {
		c.Vec(&r.DV)
	}
}

// Encode serializes the record payload.
func (r ReplyReceive) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeReplyReceive parses a TReplyReceive payload.
func DecodeReplyReceive(p []byte) (r ReplyReceive, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("ReplyReceive")
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

func (r *SharedRead) walk(c *Coder) {
	c.Str(&r.Session)
	c.Str(&r.Var)
	c.Bytes(&r.Value)
	c.Vec(&r.DV)
}

// Encode serializes the record payload.
func (r SharedRead) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeSharedRead parses a TSharedRead payload.
func DecodeSharedRead(p []byte) (r SharedRead, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("SharedRead")
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

func (r *SharedWrite) walk(c *Coder) {
	c.Str(&r.Session)
	c.Str(&r.Var)
	c.Bytes(&r.Value)
	c.Vec(&r.DV)
	c.I64((*int64)(&r.PrevWrite))
}

// Encode serializes the record payload.
func (r SharedWrite) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeSharedWrite parses a TSharedWrite payload.
func DecodeSharedWrite(p []byte) (r SharedWrite, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("SharedWrite")
}

// SVCheckpoint records a shared-variable checkpoint. The checkpointed
// value can never be an orphan (a distributed log flush per the
// variable's DV precedes it), so the backward chain breaks here (Fig. 9).
type SVCheckpoint struct {
	Var   string
	Value []byte
}

func (r *SVCheckpoint) walk(c *Coder) {
	c.Str(&r.Var)
	c.Bytes(&r.Value)
}

// Encode serializes the record payload.
func (r SVCheckpoint) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeSVCheckpoint parses a TSVCheckpoint payload.
func DecodeSVCheckpoint(p []byte) (r SVCheckpoint, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("SVCheckpoint")
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

func (r *SessionCheckpoint) walk(c *Coder) {
	c.Str(&r.Session)
	c.Str(&r.ClientAddr)
	c.Bool(&r.IntraDomain)
	c.StrMap(&r.Vars)
	c.Bool(&r.HasReply)
	if r.HasReply {
		c.U64(&r.ReplySeq)
		c.U8(&r.ReplyStatus)
		c.Bytes(&r.Reply)
	}
	c.U64(&r.NextExpected)
	n := c.Len(len(r.Outgoing))
	if c.Decoding() && n > 0 {
		r.Outgoing = make([]OutSessionState, n)
	}
	for i := range r.Outgoing[:n] {
		o := &r.Outgoing[i]
		c.Str(&o.ID)
		c.Str(&o.Target)
		c.U64(&o.NextSeq)
	}
	c.Vec(&r.DV)
}

// Encode serializes the record payload.
func (r SessionCheckpoint) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeSessionCheckpoint parses a TSessionCkpt payload.
func DecodeSessionCheckpoint(p []byte) (r SessionCheckpoint, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("SessionCheckpoint")
}

// SessionStart records the creation of a session, so crash recovery can
// rebuild the session shell even before its first checkpoint.
type SessionStart struct {
	Session     string
	ClientAddr  string
	IntraDomain bool
}

func (r *SessionStart) walk(c *Coder) {
	c.Str(&r.Session)
	c.Str(&r.ClientAddr)
	c.Bool(&r.IntraDomain)
}

// Encode serializes the record payload.
func (r SessionStart) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeSessionStart parses a TSessionStart payload.
func DecodeSessionStart(p []byte) (r SessionStart, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("SessionStart")
}

// SessionEnd marks the end of a session; its position stream is discarded
// and its earlier log records become dead (§3.2).
type SessionEnd struct {
	Session string
}

func (r *SessionEnd) walk(c *Coder) {
	c.Str(&r.Session)
}

// Encode serializes the record payload.
func (r SessionEnd) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeSessionEnd parses a TSessionEnd payload.
func DecodeSessionEnd(p []byte) (r SessionEnd, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("SessionEnd")
}

// EOS (end-of-skip) is written when session orphan recovery terminates:
// it points back at the orphan log record where replay stopped. Log
// records in [Orphan, EOS] are invisible to any future recovery of the
// session (§4.1).
type EOS struct {
	Session string
	Orphan  wal.LSN
}

func (r *EOS) walk(c *Coder) {
	c.Str(&r.Session)
	c.I64((*int64)(&r.Orphan))
}

// Encode serializes the record payload.
func (r EOS) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeEOS parses a TEOS payload.
func DecodeEOS(p []byte) (r EOS, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("EOS")
}

// PeekSession returns the leading session ID of a payload without
// decoding the rest of the record. Every session-owned record type
// (TReqReceive, TReplyReceive, TSharedRead, TSharedWrite, TSessionCkpt,
// TSessionStart, TSessionEnd, TEOS) encodes Session as its first field
// precisely so the crash-recovery analysis scan can route the record to
// its position stream without materializing values, vectors or variable
// maps.
func PeekSession(p []byte) (session string, err error) {
	id, _, err := Peek(p)
	return string(id), err
}

// Peek returns the leading string field of a payload as a view of p, and
// the bytes after it, so the analysis scan routes a record without a
// copy: a session-owned record leads with its session ID, which a
// TSharedWrite follows with the variable name, and a TSVCheckpoint leads
// with the variable name.
func Peek(p []byte) (field, rest []byte, err error) {
	c := NewDecoder(p)
	field = c.span()
	return field, c.b, c.err
}

// RecoveryInfo records a peer's broadcast recovery message so that the
// MSP's knowledge of recovered state numbers survives its own crash.
type RecoveryInfo struct {
	Process      string
	CrashedEpoch uint32
	Recovered    wal.LSN
}

func (r *RecoveryInfo) walk(c *Coder) {
	c.Str(&r.Process)
	c.U32(&r.CrashedEpoch)
	c.I64((*int64)(&r.Recovered))
}

// Encode serializes the record payload.
func (r RecoveryInfo) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeRecoveryInfo parses a TRecoveryInfo payload.
func DecodeRecoveryInfo(p []byte) (r RecoveryInfo, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("RecoveryInfo")
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

func (r *MSPCheckpoint) walk(c *Coder) {
	c.U32(&r.Epoch)
	n := c.Len(len(r.Knowledge))
	if c.Decoding() && n > 0 {
		r.Knowledge = make([]dv.RecoveryInfo, n)
	}
	for i := range r.Knowledge[:n] {
		k := &r.Knowledge[i]
		c.Str((*string)(&k.Process))
		c.U32(&k.CrashedEpoch)
		c.I64(&k.Recovered)
	}
}

// Encode serializes the record payload.
func (r MSPCheckpoint) Encode() []byte { c := NewEncoder(); r.walk(&c); return c.b }

// DecodeMSPCheckpoint parses a TMSPCheckpoint payload.
func DecodeMSPCheckpoint(p []byte) (r MSPCheckpoint, err error) {
	c := NewDecoder(p)
	r.walk(&c)
	return r, c.Done("MSPCheckpoint")
}
