package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDecl declares a metric the benchmark reports. BENCHMARK.json
// repeats these declarations; the package test holds the two together.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; the README says what each means on
// recover_4k, where a "request" is one made to a server that has just
// restarted.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.10},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.15},
}

// perLayer are the metrics of single layers, named <module>.<metric>.
// A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDecl{
	// The benchmark's client loop and process.
	{Name: "workload.requests", Unit: "count", Better: "higher"},
	{Name: "workload.run_wall_s", Unit: "s", Better: "lower"},
	{Name: "workload.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "workload.alloc_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "workload.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "workload.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.latency_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.latency_p995_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.latency_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.client_retries_per_req", Unit: "count", Better: "lower"},
	{Name: "workload.trace_overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "rpc.call_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.seqtracker_classify_ns", Unit: "ns", Better: "lower"},

	{Name: "simnet.hop_model_ms", Unit: "ms", Better: "lower"},
	{Name: "simnet.hop_overshoot_frac", Unit: "frac", Better: "lower"},
	{Name: "simnet.hop_host_ns", Unit: "ns", Better: "lower"},

	{Name: "simtime.sleep_100us_overshoot_us", Unit: "us", Better: "lower"},
	{Name: "simtime.sleep_1ms_overshoot_us", Unit: "us", Better: "lower"},
	{Name: "simtime.sleep_100us_overshoot_p99_us", Unit: "us", Better: "lower"},

	// Probe: one MSP with logging on, a method that sets one session
	// variable, one client, nothing scaled or slept.
	{Name: "core.request_host_ns", Unit: "ns", Better: "lower"},
	{Name: "core.request_host_cpu_ns", Unit: "ns", Better: "lower"},
	{Name: "core.request_host_allocs", Unit: "count", Better: "lower"},
	{Name: "core.request_host_alloc_bytes", Unit: "B", Better: "lower"},
	// Counters summed over the MSPs.
	{Name: "core.requests_served", Unit: "count", Better: "higher"},
	{Name: "core.dist_flushes_per_req", Unit: "count", Better: "lower"},
	{Name: "core.session_ckpts", Unit: "count", Better: "lower"},
	{Name: "core.sv_ckpts", Unit: "count", Better: "lower"},
	{Name: "core.msp_ckpts", Unit: "count", Better: "lower"},
	{Name: "core.busy_replies", Unit: "count", Better: "lower"},
	{Name: "core.overloaded_replies", Unit: "count", Better: "lower"},
	{Name: "core.shed_at_admission", Unit: "count", Better: "lower"},
	{Name: "core.queue_depth_peak", Unit: "count", Better: "lower"},
	{Name: "core.orphan_recoveries", Unit: "count", Better: "lower"},
	// Recovery only; times are medians over the run's cycles.
	{Name: "core.requests_replayed", Unit: "count", Better: "lower"},
	{Name: "core.sessions_replayed", Unit: "count", Better: "lower"},
	{Name: "core.lazy_replays", Unit: "count", Better: "lower"},
	{Name: "core.sweep_replays", Unit: "count", Better: "lower"},
	{Name: "core.ttfr_ms", Unit: "ms", Better: "lower"},
	{Name: "core.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "core.first_request_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.replay_ms_per_session", Unit: "ms", Better: "lower"},
	// Spans: mean model ms per traced request.
	{Name: "core.span.client_call_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.to_msp1_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.msp1_handler_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.ctx_read_shared_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.ctx_write_shared_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.ctx_setvar_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.ctx_call_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.to_msp2_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.msp2_handler_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.msp2_exit_to_call_return_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.executed_to_reply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.flush_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span.accounted_frac", Unit: "frac", Better: "higher"},

	{Name: "logrec.encode_req_receive_ns", Unit: "ns", Better: "lower"},
	{Name: "logrec.decode_req_receive_ns", Unit: "ns", Better: "lower"},
	{Name: "logrec.encode_reply_receive_ns", Unit: "ns", Better: "lower"},
	{Name: "logrec.encode_shared_read_ns", Unit: "ns", Better: "lower"},
	{Name: "logrec.encode_shared_write_ns", Unit: "ns", Better: "lower"},
	{Name: "logrec.encode_session_ckpt_ns", Unit: "ns", Better: "lower"},
	{Name: "logrec.decode_session_ckpt_ns", Unit: "ns", Better: "lower"},
	{Name: "logrec.peek_session_ns", Unit: "ns", Better: "lower"},
	{Name: "logrec.encode_allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "dv.clone_ns", Unit: "ns", Better: "lower"},
	{Name: "dv.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "dv.append_binary_ns", Unit: "ns", Better: "lower"},
	{Name: "dv.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "dv.clone_ns_8", Unit: "ns", Better: "lower"},
	{Name: "dv.merge_ns_8", Unit: "ns", Better: "lower"},
	{Name: "dv.append_binary_ns_8", Unit: "ns", Better: "lower"},
	{Name: "dv.decode_ns_8", Unit: "ns", Better: "lower"},

	{Name: "wal.appended_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "wal.rotations", Unit: "count", Better: "lower"},
	{Name: "wal.segments_reclaimed", Unit: "count", Better: "higher"},
	{Name: "wal.segments_live_end", Unit: "count", Better: "lower"},
	{Name: "wal.peak_live_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.group_commit_batches", Unit: "count", Better: "lower"},
	{Name: "wal.group_commit_factor", Unit: "count", Better: "higher"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_flush_host_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_flush_model_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.flush_overshoot_frac", Unit: "frac", Better: "lower"},
	{Name: "wal.scan_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wal.read_record_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.read_record_miss_model_ms", Unit: "ms", Better: "lower"},

	// Summed over the MSPs' log disks.
	{Name: "simdisk.writes_per_req", Unit: "count", Better: "lower"},
	{Name: "simdisk.sectors_out_per_req", Unit: "count", Better: "lower"},
	{Name: "simdisk.log_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "simdisk.wasted_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "simdisk.write_model_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "simdisk.write_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "simdisk.reads", Unit: "count", Better: "lower"},
	{Name: "simdisk.sectors_in", Unit: "count", Better: "lower"},
	{Name: "simdisk.read_model_ms", Unit: "ms", Better: "lower"},
	{Name: "simdisk.read_amp", Unit: "ratio", Better: "lower"},
	{Name: "simdisk.read_share_of_drain", Unit: "frac", Better: "lower"},
	{Name: "simdisk.charge_write_overshoot_frac", Unit: "frac", Better: "lower"},
	{Name: "simdisk.charge_read_overshoot_frac", Unit: "frac", Better: "lower"},
}

// metricSet holds the values of one run against a declaration list.
type metricSet struct {
	decls  []metricDecl
	values map[string]float64
	errs   []string
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]float64)}
}

// set records a value; a name that is not declared, a second value for
// one name and a value that is not a number are benchmark bugs and fail
// the run.
func (m *metricSet) set(name string, v float64) {
	declared := false
	for _, d := range m.decls {
		declared = declared || d.Name == name
	}
	_, twice := m.values[name]
	switch {
	case !declared:
		m.errs = append(m.errs, "metric "+name+" is not declared")
	case twice:
		m.errs = append(m.errs, "metric "+name+" set twice")
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.errs = append(m.errs, fmt.Sprintf("metric %s is %v", name, v))
	}
	m.values[name] = v
}

// ratio is a/b, and 0 where b is 0: a per-request figure of a run that
// served nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
