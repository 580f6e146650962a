package metrics

import "sync/atomic"

// Counter is a monotonically increasing event counter, safe for
// concurrent use. The zero value is ready.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// MaxGauge tracks the maximum value ever observed. The zero value is
// ready.
type MaxGauge struct{ v atomic.Int64 }

// Observe records v if it exceeds the current maximum.
func (m *MaxGauge) Observe(v int64) {
	for {
		cur := m.v.Load()
		if v <= cur || m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the maximum observed so far.
func (m *MaxGauge) Load() int64 { return m.v.Load() }

// RecoveryCounters is the observability surface of the recovery and
// fault-tolerance machinery: how often recovery ran, what it replayed
// and skipped, and which storage faults the log layer absorbed. The
// counters are process-wide totals; tests snapshot before/after deltas.
type RecoveryCounters struct {
	// RecoveriesCompleted counts finished MSP crash recoveries (Fig. 12
	// runs that reached the post-recovery checkpoint).
	RecoveriesCompleted Counter
	// SessionsReplayed counts sessions whose replay (§4.1/§4.3) ran to
	// completion.
	SessionsReplayed Counter
	// EOSWritten counts end-of-stable records appended when an orphan
	// recovery skipped the orphaned suffix of a session's log (§4.1).
	EOSWritten Counter
	// AnchorFallbacks counts log-anchor reads that found the most recent
	// anchor slot torn or corrupt and fell back to the previous slot.
	AnchorFallbacks Counter
	// CorruptTailTruncations counts recovery scans that found a torn or
	// corrupt log tail with no valid records after it and truncated it —
	// the benign half of satellite corruption handling: the lost records
	// were never acknowledged durable.
	CorruptTailTruncations Counter
	// MidLogCorruptions counts recovery scans that found corruption
	// *followed by valid records* — acknowledged data damaged in place.
	// This is surfaced as a hard error, never silently skipped.
	MidLogCorruptions Counter
	// TransientWriteRetries counts the retries of a log device write — a
	// flush block, a segment header, an anchor slot — after a transient
	// disk write error.
	TransientWriteRetries Counter

	// LazyReplays counts sessions replayed on demand: a request touched
	// the session before the sweep reached it. Shared variables are never
	// counted: the analysis scan installs them before Start returns.
	LazyReplays Counter
	// SweepReplays counts sessions replayed by the background sweep.
	SweepReplays Counter
}

// Recovery holds the process-wide recovery counters.
var Recovery RecoveryCounters

// NetCounters is the observability surface of the simulated network and
// the intra-domain control plane that runs over it: what the fault plane
// dropped and how the control plane coped with an unreliable message
// layer. What the servers shed under overload is counted in Overload.
type NetCounters struct {
	// PartitionDrops counts messages dropped by an active network
	// partition.
	PartitionDrops Counter
	// BlockedDrops counts messages dropped by a Blocked per-link fault
	// override.
	BlockedDrops Counter
	// LossDrops counts messages dropped by random loss (global rate or a
	// per-link override).
	LossDrops Counter
	// FlushDeadlinesExceeded counts distributed-flush peer calls that
	// gave up at their deadline because the peer stayed unreachable; the
	// end client sees Busy instead of a hang.
	FlushDeadlinesExceeded Counter
	// PeerDownEvents counts transitions of a peer MSP from reachable to
	// unreachable at some server: a control call missed its deadline and
	// opened the peer's closed breaker (not counted in
	// Overload.BreakerOpens).
	PeerDownEvents Counter
	// BroadcastPeersMissed counts peers a recovery broadcast could not
	// reach before its deadline (the recovered process announces to each
	// again, once a probe interval, until it acks).
	BroadcastPeersMissed Counter
}

// Net holds the process-wide network and control-plane counters.
var Net NetCounters

// WalCounters is the observability surface of the log layer: its group
// commit (§5.5) — how many writes flush leaders issued, how many flush
// requests each write served, and how often the adaptive batch window
// was held open; coalescing effectiveness is
// GroupCommitBatchWaiters / GroupCommitBatches (average requests per
// physical write) — its segments, and its scans.
type WalCounters struct {
	// GroupCommitWaits counts Flush calls that found their records not
	// yet durable and joined group commit, with or without a window.
	GroupCommitWaits Counter
	// GroupCommitBatches counts physical flushes issued by a flush leader.
	GroupCommitBatches Counter
	// GroupCommitBatchWaiters sums the number of waiters, the leader
	// included, observed as each leader took the buffer — the batch sizes.
	GroupCommitBatchWaiters Counter
	// GroupCommitWindows counts flushes that held the adaptive batch
	// window open because the log was loaded — more than one waiter
	// queued, or flushes arrived during the last write; a lone waiter on
	// an idle log is flushed immediately and never pays the window.
	GroupCommitWindows Counter

	// Rotations counts log rotations: a flush that would overfill the
	// active segment sealed it and opened the next segment file.
	Rotations Counter
	// SegmentsReclaimed counts whole segment files physically deleted by
	// checkpoint-anchored truncation (every record strictly below the
	// anchor head).
	SegmentsReclaimed Counter
	// PeakLiveBytes is the largest live span (durable minus head) any
	// single log ever reached — the bounded-disk headline number: under
	// steady checkpointing it stays flat however long the storm runs.
	PeakLiveBytes MaxGauge

	// ScanBlocksStreamed counts read-ahead blocks a Scan took from its
	// producer's stream — reads that overlapped the parsing of the block
	// before them. With ScanBlocksSync it shows the overlap without a
	// clock: a scan that streamed takes all but a handful this way.
	ScanBlocksStreamed Counter
	// ScanBlocksSync counts blocks a Scan read synchronously because the
	// stream did not hold them next: a frame header straddling two blocks
	// sends the scan back one, and a stopped or failed producer leaves the
	// rest of the range to the scan itself.
	ScanBlocksSync Counter
	// ScanRecords counts records Scan handed to its callback.
	ScanRecords Counter
}

// Wal holds the process-wide log-layer counters. Every wal.Log of the
// process counts here, sdb stores' and durable clients' journals too: the
// "wal:" line of mspr-chaos includes the ledger's log.
var Wal WalCounters

// OverloadCounters is the observability surface of the overload-control
// plane: what the admission gate accepted and shed, how deep the queues
// ran, and how the client-side circuit breakers reacted. The counters
// are process-wide totals; storms print them in the chaos summary and
// tests snapshot before/after deltas.
type OverloadCounters struct {
	// Admitted counts requests accepted into an admission lane (either
	// lane; AdmittedPriority is the priority-lane subset).
	Admitted Counter
	// AdmittedPriority counts requests admitted into the priority lane:
	// lazy-replay claims and traffic addressed to a still-recovering
	// server, which must not starve behind the new-work flood.
	AdmittedPriority Counter
	// ShedAtAdmission counts requests shed with StatusOverloaded because
	// both admission lanes were full at enqueue time.
	ShedAtAdmission Counter
	// PriorityOverflow counts priority-classified requests that found the
	// priority lane full and fell back to the tail of the normal lane:
	// still admitted, but queued behind up to a full normal lane of new
	// work — exactly the priority the lane exists to provide, lost. A
	// rising count under load is the priority-starvation signal the chaos
	// gate watches for.
	PriorityOverflow Counter
	// ShedExpired counts requests shed because their propagated deadline
	// had already passed — at admission or at the pre-append check —
	// before any durable effect was taken on their behalf.
	ShedExpired Counter
	// BreakerOpens counts closed→open (and half-open→open) transitions of
	// client-side circuit breakers, the ones calls consult through
	// rpc.CallOptions.Breaker. Domain peers going down count in
	// Net.PeerDownEvents.
	BreakerOpens Counter
	// QueueDepthPeak is the deepest combined admission-queue backlog
	// (normal + priority lane) any server observed at enqueue time — the
	// bounded-queue headline number: it can never exceed the configured
	// lane capacities however hard the flood runs.
	QueueDepthPeak MaxGauge
	// PriorityDepthPeak is the deepest priority-lane backlog observed.
	PriorityDepthPeak MaxGauge
}

// Overload holds the process-wide overload-control counters.
var Overload OverloadCounters
