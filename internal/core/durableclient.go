package core

import (
	"errors"
	"fmt"
	"sync"

	"mspr/internal/logrec"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/wal"
)

// DurableClient is an end client whose session progress survives its own
// crashes. The paper's exactly-once argument (§3.1) assumes the client
// resends a request — with the same sequence number — until the reply
// arrives; a client that forgets its sequence numbers in a crash breaks
// that chain. DurableClient writes an intent record (session, sequence,
// method, argument) to stable storage before each send and a completion
// record after each reply, so a restarted client resumes every session
// exactly where it stopped: completed requests are never re-issued with
// a fresh sequence number (which would duplicate them), and an in-flight
// request can be re-driven to fetch the server's buffered reply.
type DurableClient struct {
	clientCore
	log *wal.Log

	// jmu guards the journal and everything it backs: the session table,
	// and each session's nextSeq and pending intent.
	jmu      sync.Mutex
	sessions map[string]*DurableSession
}

// DurableSession is one durable session with an MSP.
type DurableSession struct {
	clientWire
	dc      *DurableClient
	nextSeq uint64
	pending *intent
}

// intent is a persisted in-flight request.
type intent struct {
	seq    uint64
	method string
	arg    []byte
}

// journal record types.
const (
	dcBegin  byte = 1 // session created: id, target
	dcIntent byte = 2 // about to send: session, seq, method, arg
	dcDone   byte = 3 // reply received: session, seq
)

// NewDurableClient opens (or re-opens after a crash) the durable client
// whose journal is the log "client/<id>" on disk. Restored sessions are
// available via Sessions. A Breaker in opts is a per-server template, as
// for NewClient.
func NewDurableClient(id string, net *simnet.Network, disk *simdisk.Disk, opts rpc.CallOptions) (*DurableClient, error) {
	log, err := wal.Open(disk, "client/"+id, wal.Config{})
	if err != nil {
		return nil, err
	}
	c := &DurableClient{log: log, sessions: make(map[string]*DurableSession)}
	c.start(id, net, opts)
	c.ep.SetDown(false)
	// Replay the journal and cut off a torn tail. Damage to a record that
	// valid records follow is wal.ErrCorrupt: restarting past it would
	// forget a sequence number the client used.
	if _, err := log.Scan(0, c.applyJournal); err != nil {
		return nil, errors.Join(err, c.Close())
	}
	log.RepairTail()
	return c, nil
}

// Close stops the client and closes its journal; the state stays on
// disk. A closed client writes nothing more, so it cannot write over the
// records of a client reopened on the same disk.
func (c *DurableClient) Close() error {
	c.clientCore.Close()
	return c.log.Close()
}

// Crash simulates a client crash: like Close, but also drops in-flight
// deliveries (callers then construct a fresh DurableClient on the same
// disk).
func (c *DurableClient) Crash() error {
	defer c.ep.SetDown(true)
	return c.Close()
}

// Session starts a new durable session with the MSP at target.
func (c *DurableClient) Session(target string) (*DurableSession, error) {
	id := c.nextSessionID()
	c.jmu.Lock()
	defer c.jmu.Unlock()
	if err := c.appendLocked(jrec{typ: dcBegin, id: id, target: target}); err != nil {
		return nil, err
	}
	return c.openLocked(id, target), nil
}

// openLocked adds session id to the table, wired to target. Caller holds
// c.jmu, or is replaying the journal, before the client is shared.
func (c *DurableClient) openLocked(id, target string) *DurableSession {
	ds := &DurableSession{clientWire: c.wire(id, target), dc: c, nextSeq: 1}
	c.sessions[id] = ds
	return ds
}

// Sessions returns every session known to the client, including ones
// restored from stable storage after a crash, keyed by session ID.
func (c *DurableClient) Sessions() map[string]*DurableSession {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	out := make(map[string]*DurableSession, len(c.sessions))
	for k, v := range c.sessions {
		out[k] = v
	}
	return out
}

// Target returns the MSP the session talks to.
func (ds *DurableSession) Target() string { return ds.target }

// Pending returns the in-flight request restored from stable storage, if
// any: the request was sent before the client crashed and its outcome is
// unknown. Call Resume to drive it to completion.
func (ds *DurableSession) Pending() (method string, arg []byte, ok bool) {
	ds.dc.jmu.Lock()
	defer ds.dc.jmu.Unlock()
	if ds.pending == nil {
		return "", nil, false
	}
	return ds.pending.method, append([]byte(nil), ds.pending.arg...), true
}

// Call invokes a service method with exactly-once semantics that survive
// client crashes. It returns an error if a restored in-flight request is
// still pending (Resume it first).
func (ds *DurableSession) Call(method string, arg []byte) ([]byte, error) {
	ds.dc.jmu.Lock()
	if ds.pending != nil {
		ds.dc.jmu.Unlock()
		return nil, errors.New("core: session has a pending request; Resume it first")
	}
	in := &intent{seq: ds.nextSeq, method: method, arg: append([]byte(nil), arg...)}
	if err := ds.dc.appendLocked(jrec{typ: dcIntent, id: ds.id, intent: *in}); err != nil {
		ds.dc.jmu.Unlock()
		return nil, err
	}
	ds.pending = in
	ds.dc.jmu.Unlock()
	return ds.complete(in, false)
}

// Resume re-drives a restored in-flight request to completion, returning
// its reply. The server's sequence-number discipline guarantees the
// request executes exactly once no matter how many times it was sent.
func (ds *DurableSession) Resume() ([]byte, error) {
	ds.dc.jmu.Lock()
	in := ds.pending
	ds.dc.jmu.Unlock()
	if in == nil {
		return nil, errors.New("core: nothing to resume")
	}
	return ds.complete(in, true)
}

// complete drives the journaled intent to a terminal reply, then persists
// completion. resumed marks a restored intent: every send of it —
// including the first — is a retry of the original, possibly pre-crash,
// invocation. On a transport-level failure the intent stays pending.
func (ds *DurableSession) complete(in *intent, resumed bool) ([]byte, error) {
	payload, err := ds.drive(in.seq, in.method, in.arg, false, resumed)
	if !isTerminal(err) {
		return nil, err
	}
	ds.dc.jmu.Lock()
	werr := ds.dc.appendLocked(jrec{typ: dcDone, id: ds.id, intent: *in})
	if werr == nil {
		ds.pending = nil
		ds.nextSeq = in.seq + 1
	}
	ds.dc.jmu.Unlock()
	if werr != nil {
		return nil, werr
	}
	return payload, err
}

// jrec is one journal record: typ says which of its fields the payload
// holds.
type jrec struct {
	typ        byte
	id, target string
	intent
}

// walk lists the payload's fields in order: every record starts with the
// session id, a begin adds the target, an intent the request, a done its
// sequence number.
func (r *jrec) walk(c *logrec.Coder) {
	c.Str(&r.id)
	switch r.typ {
	case dcBegin:
		c.Str(&r.target)
	case dcIntent:
		c.U64(&r.seq)
		c.Str(&r.method)
		c.Bytes(&r.arg)
	case dcDone:
		c.U64(&r.seq)
	}
}

// appendLocked writes one journal record durably. Caller holds c.jmu.
func (c *DurableClient) appendLocked(r jrec) error {
	var enc logrec.Coder
	r.walk(&enc)
	lsn, err := c.log.Append(r.typ, enc.Encoded())
	if err != nil {
		return err
	}
	return c.log.Flush(lsn)
}

// applyJournal replays one record; one that does not decode, or one
// naming a session the journal never began, is skipped.
func (c *DurableClient) applyJournal(_ wal.LSN, typ byte, p []byte) error {
	r := jrec{typ: typ}
	dec := logrec.NewDecoder(p)
	r.walk(&dec)
	if dec.Done("journal record") != nil {
		return nil
	}
	if typ == dcBegin {
		c.openLocked(r.id, r.target)
		// Track the counter so new sessions never collide with restored
		// IDs.
		var n uint64
		if _, err := fmt.Sscanf(r.id, c.id+"#%d", &n); err == nil && n > c.counter {
			c.counter = n
		}
		return nil
	}
	ds := c.sessions[r.id]
	switch {
	case ds == nil: // never begun: skipped
	case typ == dcIntent:
		ds.pending = &r.intent
	case typ == dcDone:
		if ds.pending != nil && ds.pending.seq == r.seq {
			ds.pending = nil
		}
		if r.seq+1 > ds.nextSeq {
			ds.nextSeq = r.seq + 1
		}
	}
	return nil
}
