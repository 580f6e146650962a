// Package core implements the paper's contribution: a log-based recovery
// infrastructure for Middleware Server Processes (MSPs).
//
// An MSP (Server) serves client-initiated requests with a thread pool,
// keeps private in-memory session state per client and shared in-memory
// state across clients, and may call other MSPs while serving a request
// (§2). The recovery infrastructure is transparent to service methods: it
// logs every source of nondeterminism (message receipts and shared-state
// accesses) to a single physical log, checkpoints sessions, shared
// variables and the MSP itself, and after a crash replays logged requests
// to restore all business state — guaranteeing exactly-once execution
// semantics and inter-MSP consistency (no orphans).
//
// Logging is locally optimistic (§3.1): message exchanges within a
// service domain attach dependency vectors and defer log flushes, while
// exchanges across domain boundaries (including all end-client traffic)
// are logged pessimistically via a distributed log flush before send.
package core

import (
	"time"

	"mspr/internal/simdisk"
	"mspr/internal/simnet"
)

// Handler is a service method. It runs with at most one request per
// session in flight and must be deterministic given its argument, the
// session variables, and the values returned by Ctx.ReadShared and
// Ctx.Call — recovery re-executes it, feeding those values from the log.
type Handler func(ctx *Ctx, arg []byte) ([]byte, error)

// SharedDef declares a shared variable and its initial value.
type SharedDef struct {
	Name    string
	Initial []byte
}

// Definition is the application-level content of an MSP: its service
// methods and shared variables. A Definition is immutable once the server
// starts and is reused verbatim when restarting after a crash (program
// code survives crashes; only in-memory state is lost).
type Definition struct {
	Methods map[string]Handler
	Shared  []SharedDef
}

// Config assembles an MSP. The zero value is not runnable; use NewConfig
// for experiment-ready defaults.
type Config struct {
	// ID is the MSP's process identifier and network address.
	ID string
	// Domain is the service domain this MSP belongs to. Every MSP must be
	// in exactly one domain; an MSP alone in its domain does pure
	// pessimistic logging (the paper's Pessimistic configuration).
	Domain *Domain
	// Disk hosts the MSP's physical log (a dedicated disk, per §5.2). The
	// fault-injection registry attached to it (simdisk.Disk.SetFailpoints)
	// is also the one the server evaluates its named crash points
	// (core.recovery.*, core.ckpt.*, core.replay.*) against; none — the
	// default — disables injection with no behavioural change.
	Disk *simdisk.Disk
	// Net is the simulated network.
	Net *simnet.Network
	// Def supplies methods and shared variables.
	Def Definition

	// Workers is the thread-pool size.
	Workers int
	// Logging enables the recovery infrastructure. False reproduces the
	// paper's NoLog configuration: no logging, no recovery — and no
	// tombstones for ended sessions, so a late duplicate of an ended
	// session's first request starts the session over.
	Logging bool
	// SessionCkptThreshold is the amount of log (bytes) a session consumes
	// between session checkpoints (1 MB in most of §5). Zero disables
	// session checkpointing (the paper's NoCp configuration).
	SessionCkptThreshold int64
	// SVCkptEvery is the number of writes to a shared variable between its
	// checkpoints (§3.3). The write that reaches it does not take the
	// checkpoint: it schedules one on a background goroutine (at most one
	// per variable at a time), which flushes and appends under the
	// variable's lock, so more than SVCkptEvery writes can separate two
	// checkpoint records. Zero disables shared-variable checkpointing.
	SVCkptEvery int
	// MSPCkptEvery is the amount of log (bytes) between fuzzy MSP
	// checkpoints (§3.4).
	MSPCkptEvery int64
	// ForceCkptAfter forces a session or shared-variable checkpoint if
	// this many MSP checkpoints were taken since its last one, keeping the
	// analysis-scan start point fresh (§3.4).
	ForceCkptAfter int
	// BatchFlushTimeout enables batch flushing (group commit) with the
	// given model timeout (§5.5); zero flushes immediately.
	BatchFlushTimeout time.Duration
	// WalSegmentSize is the data capacity (bytes) of one physical log
	// segment file: the log rotates to a new segment when a flush would
	// exceed it, and checkpoint-anchored truncation deletes whole
	// segments below the anchor head, bounding disk usage under
	// sustained traffic. Zero selects the log layer's 4 MB default.
	WalSegmentSize int64
	// TimeScale converts model latencies to wall-clock sleeps.
	TimeScale float64
	// FlushDeadline bounds one distributed-flush peer call end to end
	// (model time): transmission, retransmissions with backoff, and the
	// wait for the peer to finish recovering. A peer unreachable past
	// the deadline is marked down and the caller degrades (the end
	// client sees Busy) instead of hanging. Zero selects the 2 s
	// default. Scaled durations are clamped to small wall-clock floors
	// so tiny TimeScales keep working.
	FlushDeadline time.Duration
	// CtlRetransmit is the retransmission interval for control calls
	// (flush requests, recovery broadcasts) and the pause before asking a
	// still-recovering peer again: rpc.Exchange's ResendAfter and
	// BusyBackoff, so at least 1 ms wall-clock. Zero selects the 20 ms
	// default.
	CtlRetransmit time.Duration
	// BroadcastDeadline bounds the wait for each peer's recovery-
	// broadcast ack. A peer missed within it is announced to again once
	// every PeerProbeEvery, each time under this deadline, until it acks.
	// Zero selects the 500 ms default.
	BroadcastDeadline time.Duration
	// PeerProbeEvery is how long flushes against a peer marked down fail
	// fast before one of them goes through as a probe — the cooldown of
	// the peer's rpc.Breaker; one probe is in flight at a time. Zero
	// selects the 100 ms default.
	PeerProbeEvery time.Duration
	// RequestQueueDepth bounds the normal admission lane: new client work
	// beyond this backlog is shed at enqueue time with StatusOverloaded
	// instead of waiting out the client's resend timer. Zero selects the 4096 default (the pre-admission-gate queue
	// capacity).
	RequestQueueDepth int
	// PriorityQueueDepth bounds the priority admission lane reserved for
	// recovery-critical traffic: lazy-replay claims (requests touching
	// sessions not yet replayed since a crash) and requests arriving
	// while the server is still recovering. Workers drain this lane
	// first, so pending-replay work keeps making progress under a
	// saturation flood. A full priority lane falls back to the normal
	// lane before shedding. Zero selects the 256 default.
	PriorityQueueDepth int
	// StatelessSessions makes the server accept any request sequence on
	// any session, creating sessions on demand and executing every
	// delivery. It is for services that deduplicate at a lower layer —
	// e.g. a transactional resource manager whose testable transactions
	// detect duplicates against durable state (see internal/txmsp). Such
	// services must make their handlers idempotent themselves. Ended
	// sessions leave no tombstone: any ID may start over.
	StatelessSessions bool
	// Tap, when non-nil, attaches the correctness oracle's server-side
	// observation tap (see internal/oracle): request executions,
	// recoveries, session rollbacks and checkpoint state digests are
	// reported to it. Nil — the default — reduces every tap site to one
	// guarded nil check, adding no work and no allocations to the
	// request hot path.
	Tap Tap

	// noRecoverySweep disables the background sweep that drains
	// unrecovered sessions after crash recovery's analysis pass: every
	// session is then replayed only on first touch. Only this package's
	// lazy-restore tests set it: the sweep is what guarantees the process
	// eventually returns to a fully materialized state.
	noRecoverySweep bool
}

// NewConfig returns a Config with the defaults used by the experiments:
// logging on, 1 MB session-checkpoint threshold, shared-variable
// checkpoints every 64 writes, 4 MB between MSP checkpoints, forced
// checkpoints after 3 MSP checkpoints. The fields it leaves zero take
// Start's defaults.
func NewConfig(id string, domain *Domain, disk *simdisk.Disk, net *simnet.Network, def Definition) Config {
	var timeScale float64
	if disk != nil {
		timeScale = disk.Model().TimeScale
	}
	return Config{
		ID:                   id,
		Domain:               domain,
		Disk:                 disk,
		Net:                  net,
		Def:                  def,
		Logging:              true,
		SessionCkptThreshold: 1 << 20,
		SVCkptEvery:          64,
		MSPCkptEvery:         4 << 20,
		ForceCkptAfter:       3,
		TimeScale:            timeScale,
	}
}
