// Command mspr-logdump runs a small recoverable workload and prints the
// resulting physical log, decoded record by record — a convenient way to
// see exactly what the recovery infrastructure writes for a given
// interaction pattern.
//
// Because the simulation is in-process, the tool builds the scenario
// itself (flags choose the shape) and then dumps the named MSP's log.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mspr"
	"mspr/internal/chaos"
	"mspr/internal/logdump"
)

func main() {
	requests := flag.Int("requests", 4, "requests to run before dumping")
	sessions := flag.Int("sessions", 2, "concurrent client sessions")
	withCrash := flag.Bool("crash", true, "crash and restart the MSP mid-way")
	segSize := flag.Int64("segment-size", 0, "log segment data capacity in bytes (0 = 4 MB default); small values show rotation in the dump")
	flag.Parse()

	sim := mspr.NewSim(0.02)
	dom := sim.NewDomain("dump")
	def := mspr.Definition{
		Methods: map[string]mspr.Handler{
			"work": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				v, err := ctx.ReadShared("counter")
				if err != nil {
					return nil, err
				}
				if err := ctx.WriteShared("counter", append(v, 'x')); err != nil {
					return nil, err
				}
				ctx.SetVar("last", arg)
				return v, nil
			},
		},
		Shared: []mspr.SharedDef{{Name: "counter", Initial: nil}},
	}
	cfg := sim.NewConfig("target", dom, def)
	cfg.WalSegmentSize = *segSize
	msp, err := chaos.StartMSP(cfg)
	if err != nil {
		log.Fatal(err)
	}
	client := sim.NewClient("client")
	defer client.Close()

	runAll := func() {
		for s := 0; s < *sessions; s++ {
			sess := client.Session("target")
			for i := 0; i < *requests; i++ {
				if _, err := sess.Call("work", []byte{byte(i)}); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	runAll()
	if *withCrash {
		if err := msp.Restart(); err != nil {
			log.Fatal(err)
		}
		runAll()
	}
	if err := msp.Current().Shutdown(); err != nil {
		log.Fatal(err)
	}

	sum, err := logdump.Dump(cfg.Disk, "target.log", os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d records in [%d, %d]; by type: %v\n", sum.Records, sum.FirstLSN, sum.LastLSN, sum.ByType)
}
