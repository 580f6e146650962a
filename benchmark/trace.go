package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies a span kind. Recorded kinds are written by the
// benchmark's client loop, its service methods and its taps; derived
// kinds are cut from those at the end of the run, where one side of the
// interval was seen on another goroutine than the other.
type spanName uint8

const (
	spClientCall  spanName = iota // client: Call start → return
	spMSP1Handler                 // method1 entry → exit
	spReadShared                  // ctx.ReadShared inside method1
	spWriteShared                 // ctx.WriteShared inside method1
	spSetVar                      // session-state update inside method1
	spCtxCall                     // ctx.Call(msp2) inside method1
	spMSP2Handler                 // method2 entry → exit
	spExecuted                    // point event: Tap.RequestExecuted on the front MSP

	spToMSP1          // derived: client_call start → msp1_handler start
	spToMSP2          // derived: ctx_call start → msp2_handler start
	spMSP2Exit        // derived: msp2_handler end → ctx_call end
	spExecutedToReply // derived: executed → client_call end

	spRecoverCycle // recovery: restart → every session live
	spAnalysis     // recovery: the core.Start call
	spFirstRequest // recovery: Start returned → first served reply
	spSweep        // recovery: first reply → every session live

	spCount
)

var spanNames = [spCount]string{
	spClientCall: "client_call", spMSP1Handler: "msp1_handler", spReadShared: "ctx_read_shared",
	spWriteShared: "ctx_write_shared", spSetVar: "ctx_setvar", spCtxCall: "ctx_call",
	spMSP2Handler: "msp2_handler", spExecuted: "executed",
	spToMSP1: "to_msp1_handler", spToMSP2: "to_msp2_handler",
	spMSP2Exit: "msp2_exit_to_call_return", spExecutedToReply: "executed_to_reply",
	spRecoverCycle: "recover_cycle", spAnalysis: "analysis", spFirstRequest: "first_request", spSweep: "sweep",
}

// spanParent is the fixed span hierarchy; a root is its own parent.
var spanParent = [spCount]spanName{
	spClientCall: spClientCall, spToMSP1: spClientCall, spMSP1Handler: spClientCall,
	spExecutedToReply: spClientCall, spExecuted: spClientCall,
	spReadShared: spMSP1Handler, spWriteShared: spMSP1Handler, spSetVar: spMSP1Handler, spCtxCall: spMSP1Handler,
	spToMSP2: spCtxCall, spMSP2Handler: spCtxCall, spMSP2Exit: spCtxCall,
	spRecoverCycle: spRecoverCycle, spAnalysis: spRecoverCycle, spFirstRequest: spRecoverCycle, spSweep: spRecoverCycle,
}

// span is one recorded interval, in nanoseconds since the tracer's
// epoch. req ties the spans of one request together: the client
// session's index in the high half, the request's sequence number in
// the low half (for recovery spans, the cycle number).
type span struct {
	req        uint64
	name       spanName
	start, end int64
}

func reqKey(session int, seq uint64) uint64 { return uint64(session)<<32 | seq&0xffffffff }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method returns at once, so the service methods
// call it unconditionally.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	retries atomic.Int64

	// front is the MSP whose RequestExecuted events are recorded;
	// sessions maps its client session ids to their index.
	front    string
	sessions map[string]int
	ids      []string
}

func newTracer(front string) *tracer {
	return &tracer{epoch: now(), front: front, sessions: make(map[string]int)}
}

// at is the current time on the tracer's clock.
func (t *tracer) at() int64 {
	if t == nil {
		return 0
	}
	return int64(now().Sub(t.epoch))
}

// add records a span that started at start and ends now.
func (t *tracer) add(req uint64, name spanName, start int64) {
	if t == nil {
		return
	}
	end := t.at()
	t.mu.Lock()
	t.spans = append(t.spans, span{req, name, start, end})
	t.mu.Unlock()
}

// session registers a client session and returns its index.
func (t *tracer) session(id string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions[id] = len(t.ids)
	t.ids = append(t.ids, id)
	return len(t.ids) - 1
}

// core.Tap: only the front MSP's fresh executions are events of the
// request trace.

func (t *tracer) RequestExecuted(server, session string, seq uint64, epoch uint32, lsn uint64, reply []byte, replayed bool) {
	if replayed || server != t.front {
		return
	}
	at := t.at()
	t.mu.Lock()
	if idx, ok := t.sessions[session]; ok {
		t.spans = append(t.spans, span{reqKey(idx, seq), spExecuted, at, at})
	}
	t.mu.Unlock()
}
func (t *tracer) SessionRolledBack(server, session string, lsn uint64)                      {}
func (t *tracer) ServerRecovered(server string, crashedEpoch uint32, rec uint64, ne uint32) {}
func (t *tracer) StateDigest(server, scope string, epoch uint32, lsn uint64, digest uint64) {}

// core.ClientTap: retries are counted, the rest is already seen by the
// client loop.

func (t *tracer) ClientInvoke(session, method string, seq uint64, arg []byte) {}
func (t *tracer) ClientRetry(session string, seq uint64, attempt int)         { t.retries.Add(1) }
func (t *tracer) ClientReply(session string, seq uint64, ok bool, reply []byte) {
}

// tracedSpan is a span of the finished trace with its self time: its
// duration minus the part its child spans cover.
type tracedSpan struct {
	span
	self int64
}

// traceSummary is what a finished trace reports.
type traceSummary struct {
	spans    []tracedSpan
	requests int              // distinct roots
	total    [spCount]float64 // summed duration per kind, ns
	self     [spCount]float64 // summed self time per kind, ns
	// problems lists spans that leave their parent or have negative
	// self time; an empty list is part of the run's correctness check.
	problems []string
}

// finish derives the cross-goroutine spans, computes self times and
// checks that every child lies inside its parent.
func (t *tracer) finish() traceSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].req != spans[j].req {
			return spans[i].req < spans[j].req
		}
		return spans[i].start < spans[j].start
	})

	var sum traceSummary
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].req == spans[lo].req {
			hi++
		}
		sum.addRequest(spans[lo:hi])
		lo = hi
	}
	return sum
}

// addRequest processes the spans of one request (or recovery cycle).
func (s *traceSummary) addRequest(recorded []span) {
	first := func(n spanName) (span, bool) {
		for _, sp := range recorded {
			if sp.name == n {
				return sp, true
			}
		}
		return span{}, false
	}
	call, okCall := first(spClientCall)
	if _, okCycle := first(spRecoverCycle); !okCall && !okCycle {
		return // a set-up request: its service methods ran, but no client span was taken
	}
	s.requests++
	all := append([]span(nil), recorded...)
	derive := func(n spanName, from, to int64) {
		all = append(all, span{recorded[0].req, n, from, to})
	}
	h1, okH1 := first(spMSP1Handler)
	if okCall && okH1 {
		derive(spToMSP1, call.start, h1.start)
	}
	if ex, ok := first(spExecuted); ok && okCall {
		derive(spExecutedToReply, ex.start, call.end)
	}
	if cc, ok := first(spCtxCall); ok {
		if h2, ok := first(spMSP2Handler); ok {
			derive(spToMSP2, cc.start, h2.start)
			derive(spMSP2Exit, h2.end, cc.end)
		}
	}

	for _, sp := range all {
		if sp.name == spExecuted {
			continue
		}
		dur := sp.end - sp.start
		self := dur
		for _, c := range all {
			if c.name == sp.name || c.name == spExecuted || spanParent[c.name] != sp.name {
				continue
			}
			if c.start < sp.start || c.end > sp.end {
				s.problems = append(s.problems, fmt.Sprintf("req %#x: %s [%d,%d] leaves its parent %s [%d,%d]",
					sp.req, spanNames[c.name], c.start, c.end, spanNames[sp.name], sp.start, sp.end))
			}
			self -= c.end - c.start
		}
		if dur < 0 || self < 0 {
			s.problems = append(s.problems, fmt.Sprintf("req %#x: %s has duration %d, self time %d",
				sp.req, spanNames[sp.name], dur, self))
		}
		s.total[sp.name] += float64(dur)
		s.self[sp.name] += float64(self)
		s.spans = append(s.spans, tracedSpan{sp, self})
	}
}

// writeSpans writes the finished trace as one JSON object per line.
func (t *tracer) writeSpans(path string, sum traceSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range sum.spans {
		req := fmt.Sprintf("cycle/%d", sp.req)
		if idx := int(sp.req >> 32); spanParent[sp.name] != spRecoverCycle && idx < len(t.ids) {
			req = fmt.Sprintf("%s/%d", t.ids[idx], sp.req&0xffffffff)
		}
		parent := ""
		if p := spanParent[sp.name]; p != sp.name {
			parent = spanNames[p]
		}
		if err := enc.Encode(struct {
			Req    string `json:"req"`
			Name   string `json:"name"`
			Parent string `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Self   int64  `json:"self_ns"`
		}{req, spanNames[sp.name], parent, sp.start, sp.end, sp.self}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
