package rpc

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func opts() CallOptions {
	return CallOptions{ResendAfter: 20 * time.Millisecond, BusyBackoff: time.Millisecond, TimeScale: 1}
}

func TestCallHappyPath(t *testing.T) {
	replies := make(chan Reply, 1)
	send := func(r Request) {
		replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusOK, Payload: []byte("pong")}
	}
	out, err := Call(send, replies, Request{Session: "s", Seq: 1, Method: "ping"}, opts())
	if err != nil || string(out) != "pong" {
		t.Fatalf("got (%q, %v)", out, err)
	}
}

func TestCallResendsUntilReply(t *testing.T) {
	replies := make(chan Reply, 1)
	var sends atomic.Int64
	send := func(r Request) {
		if sends.Add(1) >= 3 { // first two sends are "lost"
			replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusOK}
		}
	}
	_, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts())
	if err != nil {
		t.Fatal(err)
	}
	if sends.Load() < 3 {
		t.Fatalf("expected ≥3 sends, got %d", sends.Load())
	}
}

func TestCallIgnoresStaleReplies(t *testing.T) {
	replies := make(chan Reply, 4)
	send := func(r Request) {
		replies <- Reply{Session: r.Session, Seq: r.Seq - 1, Status: StatusOK, Payload: []byte("stale")}
		replies <- Reply{Session: "other", Seq: r.Seq, Status: StatusOK, Payload: []byte("wrong session")}
		replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusOK, Payload: []byte("right")}
	}
	out, err := Call(send, replies, Request{Session: "s", Seq: 5}, opts())
	if err != nil || string(out) != "right" {
		t.Fatalf("got (%q, %v)", out, err)
	}
}

func TestCallBusyBacksOffAndRetries(t *testing.T) {
	replies := make(chan Reply, 1)
	var n atomic.Int64
	send := func(r Request) {
		if n.Add(1) == 1 {
			replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusBusy}
		} else {
			replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusOK}
		}
	}
	if _, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts()); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 2 {
		t.Fatalf("expected 2 sends, got %d", n.Load())
	}
}

func TestCallAppError(t *testing.T) {
	replies := make(chan Reply, 1)
	send := func(r Request) {
		replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusAppError, Payload: []byte("boom")}
	}
	_, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts())
	var ae *AppError
	if !errors.As(err, &ae) || ae.Msg != "boom" {
		t.Fatalf("got %v", err)
	}
}

func TestCallRejected(t *testing.T) {
	replies := make(chan Reply, 1)
	send := func(r Request) {
		replies <- Reply{Session: r.Session, Seq: r.Seq, Status: StatusRejected}
	}
	if _, err := Call(send, replies, Request{Session: "s", Seq: 1}, opts()); !errors.Is(err, ErrRejected) {
		t.Fatalf("got %v", err)
	}
}

func TestReplyResult(t *testing.T) {
	for _, c := range []struct {
		status  Status
		payload string
		out     string
		err     func(error) bool
	}{
		{StatusOK, "pong", "pong", func(err error) bool { return err == nil }},
		{StatusOK, "", "", func(err error) bool { return err == nil }},
		{StatusAppError, "boom", "", func(err error) bool {
			var ae *AppError
			return errors.As(err, &ae) && ae.Msg == "boom"
		}},
		{StatusRejected, "x", "", func(err error) bool { return errors.Is(err, ErrRejected) }},
		// A shed is no result: Exchange resends rather than return one.
		{StatusBusy, "x", "", func(err error) bool { return err != nil && !errors.Is(err, ErrRejected) }},
		{StatusOverloaded, "x", "", func(err error) bool { return err != nil && !errors.Is(err, ErrRejected) }},
		{Status(42), "x", "", func(err error) bool { return err != nil }},
	} {
		out, err := Reply{Status: c.status, Payload: []byte(c.payload)}.Result()
		if string(out) != c.out || !c.err(err) {
			t.Errorf("%v reply with %q: Result() = (%q, %v)", c.status, c.payload, out, err)
		}
	}
}

func TestExchangeReturnsTerminalReplies(t *testing.T) {
	for _, st := range []Status{StatusOK, StatusAppError, StatusRejected} {
		replies := make(chan Reply, 1)
		send := func(r Request) {
			replies <- Reply{Session: r.Session, Seq: r.Seq, Status: st, Payload: []byte("p")}
		}
		rep, err := Exchange(send, replies, nil, Request{Session: "s", Seq: 3}, opts())
		if err != nil || rep.Status != st || rep.Seq != 3 || string(rep.Payload) != "p" {
			t.Errorf("%v: Exchange = (%+v, %v), want the reply and a nil error", st, rep, err)
		}
	}
}

func TestSeqTrackerClassification(t *testing.T) {
	tr := NewSeqTracker(5)
	if c := tr.Classify(5); c != SeqNew {
		t.Fatalf("expected SeqNew, got %v", c)
	}
	if c := tr.Classify(4); c != SeqDuplicate {
		t.Fatalf("expected SeqDuplicate, got %v", c)
	}
	if c := tr.Classify(3); c != SeqIgnore {
		t.Fatalf("expected SeqIgnore for ancient, got %v", c)
	}
	if c := tr.Classify(9); c != SeqIgnore {
		t.Fatalf("expected SeqIgnore for future, got %v", c)
	}
	tr.Advance(5)
	if tr.Next() != 6 {
		t.Fatalf("next = %d", tr.Next())
	}
	if c := tr.Classify(5); c != SeqDuplicate {
		t.Fatalf("executed request should classify duplicate, got %v", c)
	}
}

func TestSeqTrackerAdvanceNeverRegresses(t *testing.T) {
	tr := NewSeqTracker(10)
	tr.Advance(3) // stale advance must not move next backwards
	if tr.Next() != 10 {
		t.Fatalf("next regressed to %d", tr.Next())
	}
}

// Property: a tracker that advances through an arbitrary in-order request
// stream classifies exactly one sequence as new at each step, the
// previous one as duplicate, and everything else as ignore.
func TestSeqTrackerProperty(t *testing.T) {
	prop := func(steps uint8) bool {
		tr := NewSeqTracker(1)
		for seq := uint64(1); seq <= uint64(steps%40); seq++ {
			if tr.Classify(seq) != SeqNew {
				return false
			}
			tr.Advance(seq)
			if seq >= 1 && tr.Classify(seq) != SeqDuplicate {
				return false
			}
			if seq >= 2 && tr.Classify(seq-1) != SeqIgnore {
				return false
			}
			if tr.Classify(seq+2) != SeqIgnore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []Status{StatusOK, StatusAppError, StatusBusy, StatusRejected} {
		if s.String() == "" {
			t.Fatalf("status %d has no name", s)
		}
	}
}

func TestSeqTrackerSetNext(t *testing.T) {
	tr := NewSeqTracker(1)
	tr.SetNext(9)
	if tr.Next() != 9 {
		t.Fatalf("SetNext ignored: %d", tr.Next())
	}
}

func TestAppErrorMessage(t *testing.T) {
	err := &AppError{Msg: "boom"}
	if err.Error() != "service error: boom" {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestDefaultCallOptions(t *testing.T) {
	o := DefaultCallOptions(0.5)
	if o.TimeScale != 0.5 || o.ResendAfter <= 0 || o.BusyBackoff <= 0 {
		t.Fatalf("defaults: %+v", o)
	}
}
