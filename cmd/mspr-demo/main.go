// Command mspr-demo narrates the recovery infrastructure end to end: it
// runs the paper's two-MSP configuration, crashes both MSPs in turn, and
// shows the log records, checkpoints and recovery actions involved —
// finishing with a human-readable dump of MSP1's physical log.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mspr"
	"mspr/internal/chaos"
	"mspr/internal/logdump"
	"mspr/internal/simdisk"
)

func main() {
	dump := flag.Bool("dump", true, "dump MSP1's physical log at the end")
	requests := flag.Int("requests", 6, "requests per phase")
	flag.Parse()

	sim := mspr.NewSim(0.02)
	dom := sim.NewDomain("demo")

	def2 := mspr.Definition{
		Methods: map[string]mspr.Handler{
			"tally": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				return ctx.UpdateShared("count", func(old []byte) []byte { return chaos.U64(chaos.AsU64(old) + 1) })
			},
		},
		Shared: []mspr.SharedDef{{Name: "count", Initial: chaos.U64(0)}},
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
				mine := chaos.AsU64(ctx.GetVar("orders")) + 1
				ctx.SetVar("orders", chaos.U64(mine))
				return []byte(fmt.Sprintf("order %d (global tally %d)", mine, chaos.AsU64(tally))), nil
			},
		},
	}

	cfg1 := sim.NewConfig("msp1", dom, def1)
	cfg2 := sim.NewConfig("msp2", dom, def2)
	msp1, err := chaos.StartMSP(cfg1)
	if err != nil {
		log.Fatal(err)
	}
	msp2, err := chaos.StartMSP(cfg2)
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
	report := func(name string, p *chaos.MSP, disk *simdisk.Disk) {
		st := p.Current().Stats()
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
		if err := msp2.Restart(); err != nil {
			log.Fatal(err)
		}
	}
	armed = true
	run()
	<-done
	report("msp1", msp1, cfg1.Disk)
	report("msp2", msp2, cfg2.Disk)

	phase("crash msp1 (caller): full MSP crash recovery, parallel session replay")
	if err := msp1.Restart(); err != nil {
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
