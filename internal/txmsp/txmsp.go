// Package txmsp integrates MSPs with back-end transactional systems —
// the paper's stated follow-on work (§7: "we handle middleware server
// interactions with transactional systems within our recovery
// infrastructure"), realized with the testable-transaction technique of
// the Phoenix/App line of work the paper builds on ([1], [2]).
//
// A txmsp.Server is a transactional resource manager exposed as a plain
// MSP: sessions of other MSPs call its Exec method through Ctx.Call.
// Because the resource manager lives outside every application service
// domain, those calls are logged pessimistically — the caller performs a
// distributed log flush before the request leaves its domain, so the
// request is never an orphan, and the logged reply replays without
// re-contacting the store.
//
// The hard problem is the other direction: the *store's* state must not
// see a transaction twice when the caller retries (message loss, BUSY
// backoff) or when the resource manager itself crashes after committing
// but before replying. Exec therefore makes every transaction testable:
// its idempotency key (the caller's session ID and request sequence
// number, stable across replay thanks to Ctx.RequestSeq) and its reply
// are committed atomically with the data. A re-delivered transaction
// finds the recorded reply and returns it without re-executing.
package txmsp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mspr/internal/core"
	"mspr/internal/failpoint"
	"mspr/internal/logrec"
	"mspr/internal/sdb"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/wal"
)

// OpKind is a transaction operation type.
type OpKind byte

// Transaction operation kinds.
const (
	// OpGet reads a key; its result is returned in the reply.
	OpGet OpKind = iota
	// OpPut writes a key.
	OpPut
	// OpAdd interprets the key's value as a big-endian uint64 and adds
	// the operation's Value (also 8-byte big-endian) to it. The canonical
	// "debit/credit" shape that makes duplicate execution observable.
	OpAdd
	// OpDelete removes a key.
	OpDelete
)

// Op is one operation inside a transaction.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// Tx is a transaction: a batch of operations executed atomically, in
// order. Reads observe earlier writes of the same transaction.
type Tx struct {
	Ops []Op
}

// Result carries the values read by a transaction's OpGet operations, in
// operation order.
type Result struct {
	Values [][]byte
}

func (t *Tx) walk(c *logrec.Coder) {
	n := c.Len(len(t.Ops))
	if c.Decoding() && n > 0 {
		t.Ops = make([]Op, n)
	}
	for i := range t.Ops[:n] {
		op := &t.Ops[i]
		c.U8((*byte)(&op.Kind))
		c.Str(&op.Key)
		c.Bytes(&op.Value)
	}
}

// Encode serializes a transaction for transport through Ctx.Call.
func (t Tx) Encode() []byte { var c logrec.Coder; t.walk(&c); return c.Encoded() }

// DecodeTx parses an encoded transaction.
func DecodeTx(p []byte) (t Tx, err error) {
	c := logrec.NewDecoder(p)
	t.walk(&c)
	return t, c.Done("Tx")
}

func (r *Result) walk(c *logrec.Coder) {
	n := c.Len(len(r.Values))
	if c.Decoding() && n > 0 {
		r.Values = make([][]byte, n)
	}
	for i := range r.Values[:n] {
		c.Bytes(&r.Values[i])
	}
}

// Encode serializes a result.
func (r Result) Encode() []byte { var c logrec.Coder; r.walk(&c); return c.Encoded() }

// DecodeResult parses an encoded result.
func DecodeResult(p []byte) (r Result, err error) {
	c := logrec.NewDecoder(p)
	r.walk(&c)
	return r, c.Done("Result")
}

// dataKey namespaces application keys away from the idempotency records.
func dataKey(k string) string { return "d/" + k }

// txKey is the durable idempotency record for one executed transaction.
func txKey(session string, seq uint64) string {
	return fmt.Sprintf("t/%s/%d", session, seq)
}

// Config assembles a transactional resource manager.
type Config struct {
	// ID is the resource manager's process identifier / network address.
	ID string
	// Net is the simulated network.
	Net *simnet.Network
	// Disk hosts the durable store (the "DBMS disk").
	Disk *simdisk.Disk
	// TimeScale matches the rest of the simulation.
	TimeScale float64
	// Tap, when non-nil, attaches the correctness oracle's observation
	// tap (see internal/oracle). Transactions report epoch 0 / LSN 0:
	// their durability is the store's commit, not a session log position,
	// so no MSP recovery event ever rolls them back.
	Tap core.Tap
}

// Server is a transactional resource manager: a NoLog MSP whose only
// durable state is its sdb store. Exactly-once transaction execution is
// provided by testable transactions, not by request logging — this is
// precisely the "interaction contract" division of labour: the MSP
// recovery infrastructure guarantees the *callers* replay
// deterministically, and the resource manager guarantees duplicate
// transactions are detected against its own durable state.
type Server struct {
	cfg   Config
	srv   *core.Server
	store *sdb.Store
}

// Start launches the resource manager. Restarting after a crash reopens
// the store; committed transactions (and their idempotency records)
// survive, uncommitted ones vanish atomically.
func Start(cfg Config) (*Server, error) {
	if cfg.Disk == nil {
		return nil, errors.New("txmsp: config needs a Disk")
	}
	store, err := sdb.Open(cfg.Disk, cfg.ID+".db")
	if err != nil {
		return nil, err
	}
	t := &Server{cfg: cfg, store: store}
	dom := core.NewDomain("txdom-"+cfg.ID, 0, cfg.TimeScale)
	ccfg := core.NewConfig(cfg.ID, dom, nil, cfg.Net, core.Definition{
		Methods: map[string]core.Handler{"exec": t.exec},
	})
	ccfg.Logging = false          // durability lives in the store, not a log
	ccfg.StatelessSessions = true // duplicates are detected by testable transactions
	ccfg.TimeScale = cfg.TimeScale
	srv, err := core.Start(ccfg)
	if err != nil {
		return nil, errors.Join(err, store.Close())
	}
	t.srv = srv
	return t, nil
}

// storeFailed converts a store error into the right failure mode: an
// injected crash (the store's process died mid-commit, or mid-write)
// means the outcome is UNKNOWN to the caller — replying with an
// application error would turn a maybe-committed transaction into a
// definite failure and break exactly-once. Those abort with no reply;
// the client's resend is deduplicated by the idempotency record. Plain
// errors (decode failures etc.) are deterministic and reply normally.
func storeFailed(ctx *core.Ctx, err error) error {
	if failpoint.IsInjected(err) || errors.Is(err, sdb.ErrWedged) {
		ctx.AbortNoReply(err)
	}
	return err
}

// exec runs one transaction exactly once. The idempotency key is the
// calling session and request sequence number; key and reply commit
// atomically with the data.
func (t *Server) exec(ctx *core.Ctx, arg []byte) ([]byte, error) {
	id := txKey(ctx.SessionID(), ctx.RequestSeq())
	tx, err := DecodeTx(arg)
	if err != nil {
		return nil, err
	}
	st := t.store.Begin(true)
	// The duplicate check runs inside the (single-writer) transaction so
	// concurrent deliveries of the same request serialize against it.
	if prior, ok, err := st.Get(id); err != nil {
		st.Abort()
		return nil, storeFailed(ctx, err)
	} else if ok {
		st.Abort()
		// Already executed: return the recorded reply. Reported as a
		// replayed execution — it regenerates nothing and must not count
		// toward the request's execution tally.
		if tap := t.cfg.Tap; tap != nil {
			tap.RequestExecuted(t.cfg.ID, ctx.SessionID(), ctx.RequestSeq(), 0, 0, prior, true)
		}
		return prior, nil
	}
	var res Result
	for _, op := range tx.Ops {
		switch op.Kind {
		case OpGet:
			v, _, err := st.Get(dataKey(op.Key))
			if err != nil {
				st.Abort()
				return nil, storeFailed(ctx, err)
			}
			res.Values = append(res.Values, v)
		case OpPut:
			if err := st.Put(dataKey(op.Key), op.Value); err != nil {
				st.Abort()
				return nil, err
			}
		case OpAdd:
			cur, _, err := st.Get(dataKey(op.Key))
			if err != nil {
				st.Abort()
				return nil, storeFailed(ctx, err)
			}
			var base uint64
			if len(cur) >= 8 {
				base = binary.BigEndian.Uint64(cur)
			}
			var delta uint64
			if len(op.Value) >= 8 {
				delta = binary.BigEndian.Uint64(op.Value)
			}
			out := make([]byte, 8)
			binary.BigEndian.PutUint64(out, base+delta)
			if err := st.Put(dataKey(op.Key), out); err != nil {
				st.Abort()
				return nil, err
			}
		case OpDelete:
			if err := st.Delete(dataKey(op.Key)); err != nil {
				st.Abort()
				return nil, err
			}
		default:
			st.Abort()
			return nil, fmt.Errorf("txmsp: unknown op kind %d", op.Kind)
		}
	}
	reply := res.Encode()
	// The testable part: the idempotency record commits with the data.
	if err := st.Put(id, reply); err != nil {
		st.Abort()
		return nil, err
	}
	if err := st.Commit(); err != nil {
		// No tap event on a failed commit: an injected crash means the
		// outcome is unknown (the resend will find — or not find — the
		// idempotency record), and reporting a fresh execution here would
		// plant false duplicates in the history.
		return nil, storeFailed(ctx, err)
	}
	if tap := t.cfg.Tap; tap != nil {
		tap.RequestExecuted(t.cfg.ID, ctx.SessionID(), ctx.RequestSeq(), 0, 0, reply, false)
	}
	return reply, nil
}

// Crash kills the resource manager process (the durable store survives)
// and closes its store, so a commit still running in the dead incarnation
// cannot write over the next one's records.
func (t *Server) Crash() {
	t.srv.Crash()
	if err := t.store.Close(); err != nil { // closing only marks the log closed: a broken invariant
		panic(fmt.Errorf("txmsp: closing the store of %s: %w", t.cfg.ID, err))
	}
}

// Journal returns the store's journal, the resource manager's one log:
// its MSP logs nothing.
func (t *Server) Journal() *wal.Log { return t.store.Log() }

// Halted reports whether the resource manager's process has stopped.
func (t *Server) Halted() bool { return t.srv.Halted() }

// Read returns a committed value directly from the store (audit hook).
func (t *Server) Read(key string) ([]byte, bool) {
	return t.store.Get(dataKey(key))
}

// Digest returns the store's committed-state digest (see sdb.Digest) and
// reports it to the attached tap under the given scope, so a storm can
// snapshot the resource manager's state at its boundaries.
func (t *Server) Digest(scope string) uint64 {
	d := t.store.Digest()
	if tap := t.cfg.Tap; tap != nil {
		tap.StateDigest(t.cfg.ID, scope, 0, 0, d)
	}
	return d
}

// Exec is the client-side helper MSP methods use: it runs tx on the
// resource manager rm exactly once, via the calling session's outgoing
// session. During replay the logged reply is returned without touching
// the network or the store.
func Exec(ctx *core.Ctx, rm string, tx Tx) (Result, error) {
	out, err := ctx.Call(rm, "exec", tx.Encode())
	if err != nil {
		return Result{}, err
	}
	return DecodeResult(out)
}
