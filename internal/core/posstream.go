package core

import (
	"sync/atomic"

	"mspr/internal/wal"
)

// retainBudget bounds the payload bytes of log records one incarnation's
// position streams keep in memory from the crash-recovery analysis scan.
// With the default checkpoint cadence the live log is held to about
// MSPCkptEvery × (ForceCkptAfter+1) = 16 MB, so the budget is a safety
// valve: records past it are replayed through log.ReadRecord instead.
const retainBudget = 64 << 20

// retainBudgetHook is what Start gives a new server as its budget. It is a
// variable only so a test can shrink it to force the ReadRecord fallback.
var retainBudgetHook int64 = retainBudget

// retention accounts the retained bytes of every position stream of one
// server against the budget.
type retention struct {
	held  atomic.Int64
	limit int64
}

// take charges n bytes, or reports false when that would exceed the limit.
func (r *retention) take(n int) bool {
	if r.held.Add(int64(n)) > r.limit {
		r.held.Add(int64(-n))
		return false
	}
	return true
}

// posEntry is one element of a position stream: a record's LSN and, when
// the analysis scan retained it, the record itself. The payload is a
// read-only view of a block wal.Scan read; typ 0 means nothing is retained
// and the record is read from the log when replay needs it.
type posEntry struct {
	lsn     wal.LSN
	typ     byte
	payload []byte
}

// posStream is a session's position stream (§3.2): the positions, inside
// the shared physical log, of the session's log records since its latest
// checkpoint. Replay follows the stream so each session can be recovered
// independently and in parallel from the single shared log.
//
// Positions live only in memory, and the session checkpoint bounds them:
// taking one truncates the stream. After an MSP crash the stream is lost
// and the analysis scan rebuilds it, which — having every record's bytes
// in hand — leaves them in the entries so that replay reads nothing a
// second time.
type posStream struct {
	all []posEntry // full stream since the last session checkpoint
	// ckpt is the session checkpoint the stream starts after, when the
	// analysis scan retained it (lsn 0 otherwise).
	ckpt posEntry
	// kept is the retained payload bytes of all and ckpt, charged to budget.
	kept   int
	budget *retention
}

// append adds a record to the stream.
func (p *posStream) append(e posEntry) {
	p.all = append(p.all, e)
}

// retained returns the stream entry for a record the analysis scan holds
// in its hands: with the record kept if the budget allows, bare otherwise.
func (p *posStream) retained(lsn wal.LSN, typ byte, payload []byte) posEntry {
	if !p.budget.take(len(payload)) {
		return posEntry{lsn: lsn}
	}
	p.kept += len(payload)
	return posEntry{lsn: lsn, typ: typ, payload: payload}
}

// restartAtCheckpoint applies a session checkpoint record found by the
// analysis scan: every earlier position, and an earlier checkpoint, go.
func (p *posStream) restartAtCheckpoint(lsn wal.LSN, typ byte, payload []byte) {
	p.truncateAll()
	p.ckpt = p.retained(lsn, typ, payload)
}

// uncharge returns n retained bytes to the budget.
func (p *posStream) uncharge(n int) {
	p.kept -= n
	p.budget.held.Add(int64(-n))
}

// release lets go of every retained record, keeping the positions: the
// session is live (or dead) and a later orphan recovery reads the log.
func (p *posStream) release() {
	if p.kept == 0 {
		return // nothing retained: no log record has an empty payload
	}
	p.uncharge(p.kept)
	for i := range p.all {
		p.all[i] = posEntry{lsn: p.all[i].lsn}
	}
	p.ckpt = posEntry{}
}

// snapshot returns a copy of the stream for replay. Retained payloads are
// shared, not copied: they are immutable.
func (p *posStream) snapshot() []posEntry {
	return append([]posEntry(nil), p.all...)
}

// length returns the number of positions in the stream.
func (p *posStream) length() int { return len(p.all) }

// truncateAll discards the whole stream (session checkpoint taken or
// session ended).
func (p *posStream) truncateAll() {
	p.uncharge(p.kept)
	clear(p.all)
	p.all = p.all[:0]
	p.ckpt = posEntry{}
}

// truncateFrom removes every position ≥ lsn (orphan recovery end: the
// skipped records' positions are removed so they are invisible to any
// future recovery of the session, §4.1).
func (p *posStream) truncateFrom(lsn wal.LSN) {
	i := len(p.all)
	for i > 0 && p.all[i-1].lsn >= lsn {
		i--
	}
	for _, e := range p.all[i:] {
		p.uncharge(len(e.payload))
	}
	clear(p.all[i:])
	p.all = p.all[:i]
}

// removeRange removes positions in [from, to] (crash-recovery scan
// pruning between an orphan record and its EOS record).
func (p *posStream) removeRange(from, to wal.LSN) {
	kept := p.all[:0]
	for _, e := range p.all {
		if e.lsn < from || e.lsn > to {
			kept = append(kept, e)
		} else {
			p.uncharge(len(e.payload))
		}
	}
	clear(p.all[len(kept):])
	p.all = kept
}
