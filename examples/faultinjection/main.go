// Fault injection: a randomized crash storm verifying exactly-once
// execution end-to-end.
//
// Two MSPs in one service domain serve a bank-transfer-like workload
// over a lossy, duplicating network while both MSPs are crash-restarted
// at random points. Every client session maintains an operation counter
// in its session state and the servers maintain a shared ledger total;
// at the end, every counter must equal the number of requests issued and
// the ledger must equal the grand total — any lost or duplicated
// execution fails the run.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"

	"mspr"
	"mspr/internal/simnet"
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

func frontDef() mspr.Definition {
	return mspr.Definition{
		Methods: map[string]mspr.Handler{
			"deposit": func(ctx *mspr.Ctx, amount []byte) ([]byte, error) {
				// Record in the back office first (intra-domain call).
				if _, err := ctx.Call("back", "record", amount); err != nil {
					return nil, err
				}
				n := asU64(ctx.GetVar("ops")) + 1
				ctx.SetVar("ops", u64(n))
				return u64(n), nil
			},
		},
	}
}

func backDef() mspr.Definition {
	return mspr.Definition{
		Methods: map[string]mspr.Handler{
			"record": func(ctx *mspr.Ctx, amount []byte) ([]byte, error) {
				return ctx.UpdateShared("ledger", func(old []byte) []byte { return u64(asU64(old) + asU64(amount)) })
			},
			"total": func(ctx *mspr.Ctx, _ []byte) ([]byte, error) {
				return ctx.ReadShared("ledger")
			},
		},
		Shared: []mspr.SharedDef{{Name: "ledger", Initial: u64(0)}},
	}
}

func main() {
	const (
		sessions    = 6
		perSession  = 40
		crashEveryN = 35 // requests between random crash-restarts
	)
	sim := mspr.NewSim(0.005)
	// A hostile network: loss and duplication on every link.
	sim.Net = lossyNet(sim)
	dom := sim.NewDomain("bank")
	frontCfg := sim.NewConfig("front", dom, frontDef())
	backCfg := sim.NewConfig("back", dom, backDef())
	frontCfg.SessionCkptThreshold = 32 << 10
	backCfg.SessionCkptThreshold = 32 << 10

	front, err := mspr.Start(frontCfg)
	if err != nil {
		log.Fatal(err)
	}
	back, err := mspr.Start(backCfg)
	if err != nil {
		log.Fatal(err)
	}

	var (
		mu      sync.Mutex
		crashes int
		reqs    atomic.Int64
	)
	rng := rand.New(rand.NewSource(7))
	crashOne := func() {
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(2) == 0 {
			back.Crash()
			b, err := mspr.Start(backCfg)
			if err != nil {
				log.Fatal(err)
			}
			back = b
		} else {
			front.Crash()
			f, err := mspr.Start(frontCfg)
			if err != nil {
				log.Fatal(err)
			}
			front = f
		}
		crashes++
	}

	client := sim.NewClient("teller")
	defer client.Close()
	var wg sync.WaitGroup
	var failed atomic.Bool
	grandTotal := uint64(0)
	for s := 0; s < sessions; s++ {
		amount := uint64(s + 1)
		grandTotal += amount * perSession
		wg.Add(1)
		go func(amount uint64) {
			defer wg.Done()
			sess := client.Session("front")
			for i := 1; i <= perSession; i++ {
				out, err := sess.Call("deposit", u64(amount))
				if err != nil {
					fmt.Printf("deposit failed: %v\n", err)
					failed.Store(true)
					return
				}
				if got := asU64(out); got != uint64(i) {
					fmt.Printf("EXACTLY-ONCE VIOLATION: op counter %d, want %d\n", got, i)
					failed.Store(true)
					return
				}
				if n := reqs.Add(1); n%crashEveryN == 0 {
					crashOne()
				}
			}
		}(amount)
	}
	wg.Wait()

	check := client.Session("front")
	_ = check
	audit := client.Session("back")
	out, err := audit.Call("total", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d sessions × %d deposits with %d crash-restarts on a lossy network\n",
		sessions, perSession, crashes)
	fmt.Printf("ledger total: %d (expected %d)\n", asU64(out), grandTotal)
	if failed.Load() || asU64(out) != grandTotal {
		log.Fatal("FAILED: lost or duplicated executions detected")
	}
	fmt.Println("PASS: every deposit executed exactly once")
}

// lossyNet rebuilds the simulation network with loss and duplication.
func lossyNet(sim *mspr.Sim) *simnet.Network {
	return simnet.New(simnet.Config{
		OneWay:    sim.DomainLatency,
		TimeScale: sim.TimeScale,
		LossRate:  0.05,
		DupRate:   0.05,
		Seed:      11,
	})
}
