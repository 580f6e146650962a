// Package logdump renders an MSP's physical log in human-readable form:
// every record decoded with its type, session, dependency vector and
// payload summary, plus the anchor. It is the debugging companion of the
// recovery infrastructure — the paper's protocols (orphan detection, EOS
// skipping, checkpoint positions) are all directly visible in a dump.
package logdump

import (
	"fmt"
	"io"

	"mspr/internal/logrec"
	"mspr/internal/simdisk"
	"mspr/internal/wal"
)

// Summary aggregates a dump's statistics.
type Summary struct {
	Records   int
	ByType    map[logrec.Type]int
	FirstLSN  wal.LSN
	LastLSN   wal.LSN
	Anchor    wal.Anchor
	HasAnchor bool
	Segments  []SegmentDump
}

// SegmentDump describes one physical segment file of the dumped log.
type SegmentDump struct {
	Index    uint64
	Name     string
	FirstLSN wal.LSN // first record at or above the log head; 0 if none
	LastLSN  wal.LSN // last record; 0 if none
	Bytes    int64   // file size including the header sector
	Records  int     // records dumped from this segment
	Active   bool    // still appended to (the final segment)
	// Reclaimable marks a sealed segment wholly below the anchor head:
	// the next checkpoint truncation will physically delete it.
	Reclaimable bool
}

// Dump prints every record of the named log on disk to w and returns a
// summary. The log is opened read-only (a fresh handle; concurrent
// writers' unflushed records are invisible, exactly like a crash): the
// scan starts at the anchor head but never truncates — truncation now
// physically deletes segment files, which a dump must never do.
func Dump(disk *simdisk.Disk, name string, w io.Writer) (Summary, error) {
	lg, err := wal.Open(disk, name, wal.Config{})
	if err != nil {
		return Summary{}, err
	}
	defer lg.Close() // a read-only handle: nothing was appended, so a failed close loses nothing
	sum := Summary{ByType: make(map[logrec.Type]int)}
	var from wal.LSN
	if a, ok, err := lg.ReadAnchor(); err == nil && ok {
		sum.Anchor, sum.HasAnchor = a, true
		fmt.Fprintf(w, "anchor: epoch=%d checkpoint@%d head@%d\n", a.Epoch, a.CheckpointLSN, a.Head)
		from = a.Head
	}
	segs := lg.Segments()
	for _, s := range segs {
		sum.Segments = append(sum.Segments, SegmentDump{
			Index:       s.Index,
			Name:        s.Name,
			Bytes:       s.Bytes,
			Active:      s.End == 0,
			Reclaimable: sum.HasAnchor && s.End != 0 && s.End <= sum.Anchor.Head,
		})
	}
	si := 0
	_, err = lg.Scan(from, func(lsn wal.LSN, typ byte, payload []byte) error {
		t := logrec.Type(typ)
		sum.Records++
		sum.ByType[t]++
		if sum.FirstLSN == 0 {
			sum.FirstLSN = lsn
		}
		sum.LastLSN = lsn
		// Records arrive in ascending LSN order; advance to the segment
		// covering this one (sealed ends are exclusive).
		for si < len(segs)-1 && segs[si].End != 0 && lsn >= segs[si].End {
			si++
		}
		sd := &sum.Segments[si]
		sd.Records++
		if sd.FirstLSN == 0 {
			sd.FirstLSN = lsn
		}
		sd.LastLSN = lsn
		fmt.Fprintf(w, "%10d %-13s %s\n", lsn, t, Describe(t, payload))
		return nil
	})
	if err != nil {
		return sum, err
	}
	for _, sd := range sum.Segments {
		state := "sealed"
		switch {
		case sd.Active:
			state = "active"
		case sd.Reclaimable:
			state = "reclaimable"
		}
		span := "no records at or above head"
		if sd.Records > 0 {
			span = fmt.Sprintf("records %d..%d (%d)", sd.FirstLSN, sd.LastLSN, sd.Records)
		}
		fmt.Fprintf(w, "segment %06d %-12s %8dB %-11s %s\n", sd.Index, sd.Name, sd.Bytes, state, span)
	}
	return sum, nil
}

// Describe returns a one-line description of a record's payload.
func Describe(t logrec.Type, payload []byte) string {
	switch t {
	case logrec.TReqReceive:
		r, err := logrec.DecodeReqReceive(payload)
		if err != nil {
			return badRecord(err)
		}
		dv := ""
		if r.HasDV {
			dv = " dv=" + r.DV.String()
		}
		return fmt.Sprintf("session=%s seq=%d method=%s arg=%dB%s", r.Session, r.Seq, r.Method, len(r.Arg), dv)
	case logrec.TReplyReceive:
		r, err := logrec.DecodeReplyReceive(payload)
		if err != nil {
			return badRecord(err)
		}
		dv := ""
		if r.HasDV {
			dv = " dv=" + r.DV.String()
		}
		return fmt.Sprintf("session=%s out=%s seq=%d status=%d reply=%dB%s",
			r.Session, r.OutSession, r.Seq, r.Status, len(r.Reply), dv)
	case logrec.TSharedRead:
		r, err := logrec.DecodeSharedRead(payload)
		if err != nil {
			return badRecord(err)
		}
		return fmt.Sprintf("session=%s var=%s value=%dB dv=%s", r.Session, r.Var, len(r.Value), r.DV)
	case logrec.TSharedWrite:
		r, err := logrec.DecodeSharedWrite(payload)
		if err != nil {
			return badRecord(err)
		}
		return fmt.Sprintf("session=%s var=%s value=%dB prev@%d dv=%s",
			r.Session, r.Var, len(r.Value), r.PrevWrite, r.DV)
	case logrec.TSVCheckpoint:
		r, err := logrec.DecodeSVCheckpoint(payload)
		if err != nil {
			return badRecord(err)
		}
		return fmt.Sprintf("var=%s value=%dB (chain break)", r.Var, len(r.Value))
	case logrec.TSessionCkpt:
		r, err := logrec.DecodeSessionCheckpoint(payload)
		if err != nil {
			return badRecord(err)
		}
		return fmt.Sprintf("session=%s vars=%d nextSeq=%d outgoing=%d dv=%s",
			r.Session, len(r.Vars), r.NextExpected, len(r.Outgoing), r.DV)
	case logrec.TSessionStart:
		r, err := logrec.DecodeSessionStart(payload)
		if err != nil {
			return badRecord(err)
		}
		kind := "end-client"
		if r.IntraDomain {
			kind = "intra-domain"
		}
		return fmt.Sprintf("session=%s client=%s (%s)", r.Session, r.ClientAddr, kind)
	case logrec.TSessionEnd:
		r, err := logrec.DecodeSessionEnd(payload)
		if err != nil {
			return badRecord(err)
		}
		return "session=" + r.Session
	case logrec.TEOS:
		r, err := logrec.DecodeEOS(payload)
		if err != nil {
			return badRecord(err)
		}
		return fmt.Sprintf("session=%s orphan@%d (skipped records invisible)", r.Session, r.Orphan)
	case logrec.TRecoveryInfo:
		r, err := logrec.DecodeRecoveryInfo(payload)
		if err != nil {
			return badRecord(err)
		}
		return fmt.Sprintf("process=%s crashedEpoch=%d recovered@%d", r.Process, r.CrashedEpoch, r.Recovered)
	case logrec.TMSPCheckpoint:
		r, err := logrec.DecodeMSPCheckpoint(payload)
		if err != nil {
			return badRecord(err)
		}
		return fmt.Sprintf("epoch=%d knowledge=%d", r.Epoch, len(r.Knowledge))
	}
	return fmt.Sprintf("%d payload bytes", len(payload))
}

func badRecord(err error) string { return "UNDECODABLE: " + err.Error() }
