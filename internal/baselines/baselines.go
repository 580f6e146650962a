// Package baselines implements the paper's comparison configurations
// (§5.2):
//
//   - NoLog — no logging and recovery infrastructure at all (run the core
//     engine with Logging disabled; no wrapper needed).
//   - Psession — persistent sessions: the server stores session state in
//     a local DBMS, fetching it with a read transaction before each
//     request and writing it back with a write transaction afterwards.
//   - StateServer — session states held in memory by a state server on a
//     different computer: one fetch round trip and one store round trip
//     per request, no disk.
//
// Both commercial approaches recover (or survive) session state only;
// they support neither shared in-memory state nor exactly-once execution
// across a crash — which is exactly the gap the paper's log-based
// recovery closes.
package baselines

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mspr/internal/core"
	"mspr/internal/logrec"
	"mspr/internal/rpc"
	"mspr/internal/sdb"
	"mspr/internal/simnet"
)

// encodeVars serializes a session-variable map deterministically.
func encodeVars(m map[string][]byte) []byte {
	var c logrec.Coder
	c.StrMap(&m)
	return c.Encoded()
}

// decodeVars parses encodeVars output; corrupt input yields an empty map
// (a baseline has no better recovery story than starting fresh).
func decodeVars(b []byte) map[string][]byte {
	var m map[string][]byte
	c := logrec.NewDecoder(b)
	c.StrMap(&m)
	if c.Done("session vars") != nil {
		return map[string][]byte{}
	}
	return m
}

// WrapPsession returns a Definition whose methods persist session state
// in store: a read transaction fetches it before the handler runs and a
// write transaction stores it afterwards — two database transactions per
// request, the cost structure of the paper's Psession configuration.
func WrapPsession(def core.Definition, store *sdb.Store) core.Definition {
	wrapped := core.Definition{
		Methods: make(map[string]core.Handler, len(def.Methods)),
		Shared:  def.Shared,
	}
	for name, h := range def.Methods {
		h := h
		wrapped.Methods[name] = func(ctx *core.Ctx, arg []byte) ([]byte, error) {
			key := "sess/" + ctx.SessionID()
			rt := store.Begin(false)
			blob, ok, err := rt.Get(key)
			if err != nil {
				return nil, fmt.Errorf("psession read txn: %w", err)
			}
			_ = rt.Commit()
			if ok {
				ctx.ReplaceVars(decodeVars(blob))
			}
			out, herr := h(ctx, arg)
			wt := store.Begin(true)
			if err := wt.Put(key, encodeVars(ctx.VarsSnapshot())); err != nil {
				return nil, fmt.Errorf("psession write txn: %w", err)
			}
			if err := wt.Commit(); err != nil {
				return nil, fmt.Errorf("psession commit: %w", err)
			}
			return out, herr
		}
	}
	return wrapped
}

// StateServer holds session states in memory on behalf of MSPs, like the
// commercial web-server configurations of §5.2. It provides no
// durability: if the state server itself crashes, the states are gone
// (the paper makes the same observation).
//
// Its requests are rpc.Requests: Method "fetch" or "store" of Session's
// state, which travels in Arg and Payload. Seq only matches the reply.
type StateServer struct {
	ep   *simnet.Endpoint
	stop chan struct{}

	mu   sync.Mutex
	data map[string][]byte
}

// NewStateServer starts a state server at addr.
func NewStateServer(addr string, net *simnet.Network) *StateServer {
	ss := &StateServer{
		ep:   net.Endpoint(simnet.Addr(addr)),
		stop: make(chan struct{}),
		data: make(map[string][]byte),
	}
	go ss.serve()
	return ss
}

func (ss *StateServer) serve() {
	rpc.Serve(ss.ep, ss.stop, func(m simnet.Message) {
		req, ok := m.Payload.(rpc.Request)
		if !ok {
			return
		}
		rep := rpc.Reply{Session: req.Session, Seq: req.Seq}
		ss.mu.Lock()
		switch req.Method {
		case "fetch":
			rep.Payload = append([]byte(nil), ss.data[req.Session]...)
		case "store":
			ss.data[req.Session] = append([]byte(nil), req.Arg...)
		default:
			rep.Status = rpc.StatusRejected
		}
		ss.mu.Unlock()
		ss.ep.Send(req.From, rep) //mspr:flushed-by none (StateServer baseline keeps states in memory only — §5.2, the gap log-based recovery closes)
	})
}

// Len returns the number of stored session states.
func (ss *StateServer) Len() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.data)
}

// Close stops the state server.
func (ss *StateServer) Close() { close(ss.stop) }

// StateClient is an MSP's connection to a StateServer. It is safe for
// concurrent use by the MSP's worker threads.
type StateClient struct {
	ep        *simnet.Endpoint
	server    simnet.Addr
	timeScale float64
	stop      chan struct{}

	nextSeq atomic.Uint64
	replies rpc.Router[uint64, rpc.Reply] // keyed by Seq
}

// NewStateClient creates a client at addr talking to the state server.
func NewStateClient(addr, server string, net *simnet.Network, timeScale float64) *StateClient {
	c := &StateClient{
		ep:        net.Endpoint(simnet.Addr(addr)),
		server:    simnet.Addr(server),
		timeScale: timeScale,
		stop:      make(chan struct{}),
	}
	go rpc.Serve(c.ep, c.stop, func(m simnet.Message) {
		if rep, ok := m.Payload.(rpc.Reply); ok {
			c.replies.Resolve(rep.Seq, rep)
		}
	})
	return c
}

// Close stops the client's receive loop.
func (c *StateClient) Close() { close(c.stop) }

// roundTrip sends one fetch or store of session's state, resending it
// until the state server answers, and returns the reply's payload.
func (c *StateClient) roundTrip(method, session string, blob []byte) []byte {
	seq := c.nextSeq.Add(1)
	ch := c.replies.Register(seq)
	defer c.replies.Deregister(seq)
	out, _ := rpc.Call(func(r rpc.Request) {
		c.ep.Send(c.server, r) //mspr:flushed-by none (baseline fetch/store round trip: the baselines have no log)
	}, ch, rpc.Request{Session: session, Seq: seq, Method: method, Arg: blob, From: c.ep.Addr()}, rpc.DefaultCallOptions(c.timeScale))
	return out // the error is ErrRejected, for a method the server does not know
}

// Fetch retrieves a session's state from the state server.
func (c *StateClient) Fetch(session string) map[string][]byte {
	return decodeVars(c.roundTrip("fetch", session, nil))
}

// Store saves a session's state to the state server, waiting for the
// acknowledgement.
func (c *StateClient) Store(session string, vars map[string][]byte) {
	c.roundTrip("store", session, encodeVars(vars))
}

// StoreAsync saves a session's state without waiting for the
// acknowledgement — the replication style of the commercial web servers
// the paper compares against, and the behaviour that reproduces the
// paper's measured StateServer response times (≈ NoLog plus one fetch
// round trip per MSP).
func (c *StateClient) StoreAsync(session string, vars map[string][]byte) {
	//mspr:flushed-by none (fire-and-forget store is the measured behaviour of the commercial baselines)
	c.ep.Send(c.server, rpc.Request{Session: session, Method: "store", Arg: encodeVars(vars), From: c.ep.Addr()})
}

// WrapStateServer returns a Definition whose methods fetch session state
// from the state server before running and store it back afterwards —
// two message round trips per request and no disk, the cost structure of
// the paper's StateServer configuration.
func WrapStateServer(def core.Definition, sc *StateClient) core.Definition {
	wrapped := core.Definition{
		Methods: make(map[string]core.Handler, len(def.Methods)),
		Shared:  def.Shared,
	}
	for name, h := range def.Methods {
		h := h
		wrapped.Methods[name] = func(ctx *core.Ctx, arg []byte) ([]byte, error) {
			st := sc.Fetch(ctx.SessionID())
			if len(st) > 0 {
				ctx.ReplaceVars(st)
			}
			out, herr := h(ctx, arg)
			sc.StoreAsync(ctx.SessionID(), ctx.VarsSnapshot())
			return out, herr
		}
	}
	return wrapped
}
