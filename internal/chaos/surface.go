package chaos

import (
	"slices"
	"strings"

	"mspr/internal/core"
	"mspr/internal/sdb"
	"mspr/internal/simdisk"
	"mspr/internal/wal"
)

// Role is the part a process plays in a storm; a crash point is tagged
// with the roles it is fired on.
type Role uint8

const (
	// Front is the MSP the clients call. It calls out, so its log holds
	// reply records and its sessions hold dependencies on Back.
	Front Role = 1 << iota
	// Back is the MSP that owns the shared counters.
	Back
	// Ledger is the transactional store.
	Ledger
	// AnyMSP: a lone MSP plays both MSP roles and takes every MSP point.
	AnyMSP = Front | Back
)

// CrashPoint is one row of the crash surface: a named failpoint and the
// process roles a storm injects it into.
type CrashPoint struct {
	Name  string // the fault is called "<process>-<Name>"
	Point string
	Roles Role
}

// CrashSurface is THE table of injectable crash points — every storm's
// -failpoints fault list is derived from it, and TestNoFailpointLeftBehind
// fails when an FP* constant of the engine is in neither this table nor
// that test's exclusion list. In the two-MSP storm each point is fired on
// the one process where it bites hardest (a lone MSP takes them all); the
// truncation crash is fired on both because both logs truncate.
//
// The simdisk write faults are armed for the process's log file only
// ("<point>:<process>.log"), never bare: a bare write fault is consumed
// by whichever file of the disk is written next.
var CrashSurface = []CrashPoint{
	// A damaged or refused log write lands inside the next incarnation's
	// recovery checkpoint.
	{"torn-log", simdisk.FPWriteTorn, Front},
	{"log-write-error", simdisk.FPWriteError, Front},
	{"flush-crash", wal.FPFlushCrash, Back},
	{"torn-anchor", wal.FPAnchorCrash, Back},
	// Crashes inside recovery itself (Fig. 12), step by step.
	{"crash-before-scan", core.FPRecoveryBeforeScan, Back},
	{"crash-mid-scan", core.FPRecoveryMidScan, Front},
	{"crash-after-scan", core.FPRecoveryAfterScan, Front},
	{"crash-before-broadcast", core.FPRecoveryBeforeBroadcast, Back},
	{"crash-after-broadcast", core.FPRecoveryAfterBroadcast, Back},
	{"crash-ckpt-before-anchor", core.FPCkptBeforeAnchor, Front},
	{"crash-ckpt-before-truncate", core.FPCkptBeforeTruncate, Back},
	{"crash-mid-replay", core.FPReplayMidSession, Back},
	// The instant-recovery window: between the analysis pass and the
	// first reply, during a lazy (first-touch) session replay, and inside
	// the background sweep.
	{"crash-before-serve", core.FPRecoveryBeforeServe, Front},
	{"crash-lazy-replay", core.FPLazyReplay, Front},
	{"crash-mid-sweep", core.FPSweepMid, Back},
	// The log's segment machinery, at each step of rotation (before the
	// new segment file exists, between create and anchor update, after
	// the anchor) and between truncation's segment deletions. With a
	// small segment size every step is reached constantly.
	{"crash-rotate-pre-create", wal.FPRotateBeforeCreate, Front},
	{"crash-rotate-orphan", wal.FPRotateAfterCreate, Front},
	{"crash-rotate-post-anchor", wal.FPRotateAfterAnchor, Back},
	{"crash-mid-truncate", wal.FPTruncateCrash, AnyMSP},
	// A commit wedged mid-flight (journal record durable, acknowledgement
	// lost): testable transactions must absorb the client's resend.
	{"wedge-commit", sdb.FPCommitCrash, Ledger},
}

// SurfaceFaults derives p's crash-point faults from CrashSurface: one per
// row tagged with any of roles — or, when only is given, per row whose
// failpoint is listed there.
func (p *Proc[S]) SurfaceFaults(roles Role, only ...string) []Fault {
	var faults []Fault
	for _, cp := range CrashSurface {
		if cp.Roles&roles == 0 || len(only) > 0 && !slices.Contains(only, cp.Point) {
			continue
		}
		faults = append(faults, p.CrashPointFault(p.Name+"-"+cp.Name, armedName(cp.Point, p.Name)))
	}
	return faults
}

// armedName is the name a crash point is armed under for process id.
func armedName(point, id string) string {
	if strings.HasPrefix(point, "simdisk.") {
		return point + ":" + id + ".log"
	}
	return point
}
