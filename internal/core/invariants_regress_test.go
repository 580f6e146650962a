package core

import (
	"testing"

	"mspr/internal/failpoint"
	"mspr/internal/logrec"
	"mspr/internal/simdisk"
)

// (A dvalias regression test for applyScanWrite used to live here: the
// analysis scan stored a decoded record's vector without Clone(). The
// hazard is gone by construction — the scan decodes each variable's DV
// once, from its chain head, and the decoder builds a fresh vector.)

// Regression for a walerr violation found by mspr-vet: Shutdown
// discarded the final flush's error, reporting a clean stop even when
// the tail never reached the disk. It must surface the failure.
func TestShutdownReturnsFlushError(t *testing.T) {
	e := newTestEnv(t)
	reg := failpoint.New(1)
	e.start("msp1", counterDef(), func(cfg *Config) { cfg.Disk.SetFailpoints(reg) })
	cs := e.endClient().Session("msp1")
	mustCall(t, cs, "inc", nil)

	// Fail the next three writes to the log file — exhausting the flush
	// path's transient-error retry budget — then leave an unflushed
	// tail: the shutdown flush must hit the injected error and report it.
	s := e.srvs["msp1"]
	reg.Enable(simdisk.FPWriteError+":msp1.log", failpoint.Times(3))
	rec := logrec.RecoveryInfo{Process: "px", CrashedEpoch: 1}
	if _, err := s.log.Append(byte(logrec.TRecoveryInfo), rec.Encode()); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.Shutdown(); err == nil {
		t.Fatal("Shutdown returned nil after its final flush failed")
	}
}
