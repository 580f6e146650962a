package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mspr/internal/dv"
	"mspr/internal/logrec"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
	"mspr/internal/wal"
)

// A probe times a loop over one layer's public functions, with inputs
// shaped like the Fig. 13 request's. Probes run only in a traced run
// and are the same on every workload.

// sink keeps the compiler from removing a probed call.
var sink int

// prober runs the probes into l. shrink divides every loop count; it is
// 1 except in the package test. err is the first error a probed call
// returned: a probe that timed failing calls reports nothing.
type prober struct {
	l      *metricSet
	shrink int
	err    error
}

func (p *prober) check(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// perOp runs f n times, reports the mean wall nanoseconds of one call
// as the named metric and returns its mean heap allocations.
func (p *prober) perOp(name string, n int, f func(i int) error) (allocs float64) {
	n = max(n/p.shrink, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	for i := 0; i < n; i++ {
		p.check(f(i))
	}
	d := now().Sub(start)
	runtime.ReadMemStats(&after)
	p.l.set(name, float64(d)/float64(n))
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// samples runs f n times and returns the sorted duration of each call.
func (p *prober) samples(n int, f func(i int) error) []time.Duration {
	out := make([]time.Duration, max(n/p.shrink, 1))
	for i := range out {
		start := now()
		p.check(f(i))
		out[i] = now().Sub(start)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// overshoot is how far the median of sorted lies above want, as a share
// of want.
func overshoot(sorted []time.Duration, want time.Duration) float64 {
	return ratio(float64(percentile(sorted, 50)-want), float64(want))
}

// scaled is a model duration as the wall time it is slept for.
func scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * paperTimeScale)
}

// runProbes measures every probe metric into l and returns the model
// milliseconds of one end-client hop, which the span report needs.
func runProbes(l *metricSet, shrink int) (hopMS float64, err error) {
	p := &prober{l: l, shrink: shrink}
	p.request()
	p.rpc()
	hopMS = p.simnet()
	p.simtime()
	p.logrec()
	p.dv()
	p.simdisk()
	p.wal()
	return hopMS, p.err
}

// request measures the host cost of the whole serve path: one MSP with
// logging on and nothing scaled or slept, one client, a method that sets
// one session variable, so that dispatch, encode, append and flush
// bookkeeping are the whole request. It was the issue's cpu_logged
// workload; its times vary by a fifth from run to run on a shared host,
// which no end-to-end bound survives, so it is a probe.
func (p *prober) request() {
	s, err := buildSUT(sutOneMSP, nil, nil, nil)
	if err != nil {
		p.check(err)
		return
	}
	defer s.close()
	c, pay := s.newCaller(nil), newPayloads(1, 0)
	call := func(int) error {
		_, err := c.call(s, pay, nil)
		return err
	}
	p.samples(2000, call) // warm the pools and the session
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	lat := p.samples(100000, call)
	cpu = cpuTime() - cpu
	runtime.ReadMemStats(&after)
	n := float64(len(lat))
	p.l.set("core.request_host_ns", float64(percentile(lat, 50)))
	p.l.set("core.request_host_cpu_ns", float64(cpu)/n)
	p.l.set("core.request_host_allocs", float64(after.Mallocs-before.Mallocs)/n)
	p.l.set("core.request_host_alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc)/n)
}

func (p *prober) rpc() {
	payload := make([]byte, requestSize)
	replies := make(chan rpc.Reply, 1)
	echo := func(r rpc.Request) {
		replies <- rpc.Reply{Session: r.Session, Seq: r.Seq, Status: rpc.StatusOK, Payload: payload}
	}
	opts := callOptions(paperTimeScale)
	p.perOp("rpc.call_roundtrip_ns", 20000, func(i int) error {
		out, err := rpc.Call(echo, replies, rpc.Request{Session: "client#1", Seq: uint64(i), Method: "method1", Arg: payload}, opts)
		sink += len(out)
		return err
	})
	tracker := rpc.NewSeqTracker(0)
	p.perOp("rpc.seqtracker_classify_ns", 500000, func(i int) error {
		sink += int(tracker.Classify(uint64(i)))
		tracker.Advance(uint64(i))
		return nil
	})
}

func (p *prober) simnet() (hopMS float64) {
	hop := func(scale float64, n int) []time.Duration {
		net := simnet.New(simnet.Config{OneWay: clientRTT / 2, TimeScale: scale})
		a, b := net.Endpoint("a"), net.Endpoint("b")
		return p.samples(n, func(i int) error {
			a.Send("b", i) //mspr:flushed-by none (a probe message between two bare endpoints: no process, no log)
			<-b.Recv()
			return nil
		})
	}
	modelled := hop(paperTimeScale, 1000)
	hopMS = modelMS(percentile(modelled, 50))
	p.l.set("simnet.hop_model_ms", hopMS)
	p.l.set("simnet.hop_overshoot_frac", overshoot(modelled, scaled(clientRTT/2)))
	p.l.set("simnet.hop_host_ns", float64(percentile(hop(0, 50000), 50)))
	return hopMS
}

func (p *prober) simtime() {
	sleep := func(d time.Duration, n int) []time.Duration {
		return p.samples(n, func(int) error { simtime.Sleep(d); return nil })
	}
	overUS := func(sorted []time.Duration, pct float64, d time.Duration) float64 {
		return float64(percentile(sorted, pct)-d) / 1e3
	}
	short := sleep(100*time.Microsecond, 1000)
	p.l.set("simtime.sleep_100us_overshoot_us", overUS(short, 50, 100*time.Microsecond))
	p.l.set("simtime.sleep_100us_overshoot_p99_us", overUS(short, 99, 100*time.Microsecond))
	p.l.set("simtime.sleep_1ms_overshoot_us", overUS(sleep(time.Millisecond, 100), 50, time.Millisecond))
}

// vector returns a dependency vector of n entries.
func vector(n int) dv.Vector {
	v := make(dv.Vector, n)
	for i := 0; i < n; i++ {
		v[dv.Entry{Process: dv.ProcessID(fmt.Sprintf("msp%d", i+1)), Epoch: 1}] = int64(1000 * (i + 1))
	}
	return v
}

func (p *prober) logrec() {
	const n = 200000
	arg, shared, vec := make([]byte, requestSize), make([]byte, sharedSize), vector(2)
	encode := func(name string, n int, enc func() []byte) (allocs float64) {
		return p.perOp(name, n, func(int) error {
			b := enc()
			sink += len(b)
			logrec.Recycle(b)
			return nil
		})
	}

	req := logrec.ReqReceive{Session: "client#1", Seq: 7, Method: "method1", Arg: arg}
	p.l.set("logrec.encode_allocs_per_op", encode("logrec.encode_req_receive_ns", n, req.Encode))
	reqBytes := req.Encode()
	p.perOp("logrec.decode_req_receive_ns", n, func(int) error {
		r, err := logrec.DecodeReqReceive(reqBytes)
		sink += len(r.Arg)
		return err
	})
	p.perOp("logrec.peek_session_ns", n, func(int) error {
		s, err := logrec.PeekSession(reqBytes)
		sink += len(s)
		return err
	})

	encode("logrec.encode_reply_receive_ns", n, logrec.ReplyReceive{Session: "client#1", OutSession: "msp1>msp2#1",
		Seq: 7, Reply: arg, HasDV: true, DV: vec}.Encode)
	encode("logrec.encode_shared_read_ns", n, logrec.SharedRead{Session: "client#1", Var: "sv0", Value: shared, DV: vec}.Encode)
	encode("logrec.encode_shared_write_ns", n, logrec.SharedWrite{Session: "client#1", Var: "sv0", Value: shared, DV: vec, PrevWrite: 4096}.Encode)

	ckpt := logrec.SessionCheckpoint{Session: "client#1", ClientAddr: "client",
		Vars:     map[string][]byte{"state": make([]byte, sessionStateSize), "reqs": make([]byte, 8)},
		HasReply: true, ReplySeq: 7, Reply: arg, NextExpected: 8,
		Outgoing: []logrec.OutSessionState{{ID: "msp1>msp2#1", Target: "msp2", NextSeq: 8}}, DV: vec}
	encode("logrec.encode_session_ckpt_ns", n/10, ckpt.Encode)
	ckptBytes := ckpt.Encode()
	p.perOp("logrec.decode_session_ckpt_ns", n/10, func(int) error {
		c, err := logrec.DecodeSessionCheckpoint(ckptBytes)
		sink += len(c.Vars)
		return err
	})
}

func (p *prober) dv() {
	const n = 200000
	for _, size := range []struct {
		entries int
		suffix  string
	}{{2, ""}, {8, "_8"}} {
		v, other := vector(size.entries), vector(size.entries)
		buf := v.AppendBinary(nil)
		p.perOp("dv.clone_ns"+size.suffix, n, func(int) error { sink += len(v.Clone()); return nil })
		p.perOp("dv.merge_ns"+size.suffix, n, func(int) error { sink += len(v.Merge(other)); return nil })
		p.perOp("dv.append_binary_ns"+size.suffix, n, func(int) error { sink += len(v.AppendBinary(buf[:0])); return nil })
		p.perOp("dv.decode_ns"+size.suffix, n, func(int) error {
			d, _, err := dv.DecodeVector(buf)
			sink += len(d)
			return err
		})
	}
}

func (p *prober) simdisk() {
	m := diskModel(paperTimeScale)
	d := simdisk.NewDisk(m)
	p.l.set("simdisk.charge_write_overshoot_frac",
		overshoot(p.samples(300, func(int) error { d.ChargeWrite(1, 0); return nil }), scaled(m.WriteTime(1))))
	p.l.set("simdisk.charge_read_overshoot_frac",
		overshoot(p.samples(100, func(int) error { d.ChargeRead(128); return nil }), scaled(m.ReadTime(128))))
}

func (p *prober) wal() {
	const recType = 1
	payload := make([]byte, 256)
	open := func(scale float64) *wal.Log {
		lg, err := wal.Open(simdisk.NewDisk(diskModel(scale)), "probe.log", wal.Config{})
		p.check(err)
		return lg
	}
	appendFlush := func(lg *wal.Log) (wal.LSN, error) {
		lsn, err := lg.Append(recType, payload)
		if err != nil {
			return 0, err
		}
		return lsn, lg.Flush(lsn)
	}

	// Host cost: nothing is slept.
	host := open(0)
	if host == nil {
		return
	}
	var first wal.LSN
	p.perOp("wal.append_ns", 50000, func(i int) error {
		lsn, err := host.Append(recType, payload)
		if i == 0 {
			first = lsn
		}
		return err
	})
	p.perOp("wal.append_flush_host_ns", 20000, func(int) error {
		_, err := appendFlush(host)
		return err
	})
	recs := 0
	start := now()
	_, err := host.Scan(0, func(wal.LSN, byte, []byte) error { recs++; return nil })
	p.check(err)
	p.l.set("wal.scan_ns_per_rec", ratio(float64(now().Sub(start)), float64(recs)))
	p.perOp("wal.read_record_hit_ns", 200000, func(int) error {
		_, b, err := host.ReadRecord(first)
		sink += len(b)
		return err
	})
	p.check(host.Close())

	// Model cost: one record a flush, then reads that miss the cache.
	modelled := open(paperTimeScale)
	if modelled == nil {
		return
	}
	flushes := p.samples(300, func(i int) error {
		lsn, err := appendFlush(modelled)
		if i == 0 {
			first = lsn
		}
		return err
	})
	p.l.set("wal.append_flush_model_ms", modelMS(percentile(flushes, 50)))
	p.l.set("wal.flush_overshoot_frac", overshoot(flushes, scaled(diskModel(paperTimeScale).WriteTime(1))))
	misses := p.samples(50, func(int) error {
		modelled.InvalidateCache()
		_, _, err := modelled.ReadRecord(first)
		return err
	})
	p.l.set("wal.read_record_miss_model_ms", modelMS(percentile(misses, 50)))
	p.check(modelled.Close())
}
