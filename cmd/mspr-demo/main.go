// Command mspr-demo narrates the recovery infrastructure end to end: it
// runs the paper's two-MSP configuration, crashes both MSPs in turn, and
// shows the log records, checkpoints and recovery actions involved —
// finishing with a human-readable dump of MSP1's physical log.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"

	"mspr"
	"mspr/internal/logdump"
	"mspr/internal/simdisk"
)

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func asU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func main() {
	dump := flag.Bool("dump", true, "dump MSP1's physical log at the end")
	requests := flag.Int("requests", 6, "requests per phase")
	flag.Parse()

	sim := mspr.NewSim(0.02)
	dom := sim.NewDomain("demo")

	def2 := mspr.Definition{
		Methods: map[string]mspr.Handler{
			"tally": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				return ctx.UpdateShared("count", func(old []byte) []byte { return u64(asU64(old) + 1) })
			},
		},
		Shared: []mspr.SharedDef{{Name: "count", Initial: u64(0)}},
	}
	// killMSP2, when armed, crashes msp2 at the §5.4 injection point:
	// right after msp1 receives the tally reply, so msp2's buffered log
	// records (including that reply's state) are lost and msp1's session
	// becomes an orphan.
	var killMSP2 func()
	var armed bool
	def1 := mspr.Definition{
		Methods: map[string]mspr.Handler{
			"order": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				tally, err := ctx.Call("msp2", "tally", arg)
				if err != nil {
					return nil, err
				}
				if armed {
					armed = false
					go killMSP2()
				}
				mine := asU64(ctx.GetVar("orders")) + 1
				ctx.SetVar("orders", u64(mine))
				return []byte(fmt.Sprintf("order %d (global tally %d)", mine, asU64(tally))), nil
			},
		},
	}

	cfg1 := sim.NewConfig("msp1", dom, def1)
	cfg2 := sim.NewConfig("msp2", dom, def2)
	msp1, err := mspr.Start(cfg1)
	if err != nil {
		log.Fatal(err)
	}
	msp2, err := mspr.Start(cfg2)
	if err != nil {
		log.Fatal(err)
	}
	client := sim.NewClient("client")
	defer client.Close()
	sess := client.Session("msp1")

	phase := func(title string) { fmt.Printf("\n=== %s ===\n", title) }
	run := func() {
		for i := 0; i < *requests; i++ {
			out, err := sess.Call("order", []byte("demo"))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s\n", out)
		}
	}
	report := func(name string, s *mspr.Server, disk *simdisk.Disk) {
		st := s.Stats()
		d := disk.Stats()
		fmt.Printf("  %s: served=%d replayed=%d sessionCkpts=%d svCkpts=%d mspCkpts=%d recoveries=%d flushes=%d (disk writes=%d, wasted=%dB)\n",
			name, st.RequestsServed.Load(), st.RequestsReplayed.Load(), st.SessionCkpts.Load(),
			st.SVCkpts.Load(), st.MSPCkpts.Load(), st.OrphanRecoveries.Load(),
			st.DistFlushes.Load(), d.Writes, d.WastedBytes)
	}

	phase("normal execution: locally optimistic logging inside the domain")
	run()
	report("msp1", msp1, cfg1.Disk)
	report("msp2", msp2, cfg2.Disk)

	phase("crash msp2 mid-request (§5.4): msp1's session becomes an orphan and recovers")
	done := make(chan struct{})
	killMSP2 = func() {
		defer close(done)
		msp2.Crash()
		var kerr error
		msp2, kerr = mspr.Start(cfg2)
		if kerr != nil {
			log.Fatal(kerr)
		}
	}
	armed = true
	run()
	<-done
	report("msp1", msp1, cfg1.Disk)
	report("msp2", msp2, cfg2.Disk)

	phase("crash msp1 (caller): full MSP crash recovery, parallel session replay")
	msp1.Crash()
	msp1, err = mspr.Start(cfg1)
	if err != nil {
		log.Fatal(err)
	}
	run()
	report("msp1", msp1, cfg1.Disk)
	report("msp2", msp2, cfg2.Disk)

	if *dump {
		phase("msp1 physical log (analysis-scan view)")
		dumpLog(cfg1.Disk)
	}
	fmt.Println("\nevery order executed exactly once across both crashes")
}

// dumpLog prints a one-line summary of every record in msp1's log.
func dumpLog(disk *simdisk.Disk) {
	sum, err := logdump.Dump(disk, "msp1.log", os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  record counts: %v\n", sum.ByType)
}
