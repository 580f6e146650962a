package mspr_test

import (
	"fmt"
	"log"

	"mspr"
)

// Example shows the minimal lifecycle: define a service, start it, call
// it, crash it, restart it — and observe that state survives with
// exactly-once semantics.
func Example() {
	sim := mspr.NewSim(0) // TimeScale 0: no modelled latencies (demo speed)
	dom := sim.NewDomain("example")
	def := mspr.Definition{
		Methods: map[string]mspr.Handler{
			"append": func(ctx *mspr.Ctx, arg []byte) ([]byte, error) {
				l := append(ctx.GetVar("list"), arg...)
				ctx.SetVar("list", l)
				return l, nil
			},
		},
	}
	cfg := sim.NewConfig("svc", dom, def)
	srv, err := mspr.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	client := sim.NewClient("client")
	defer client.Close()
	sess := client.Session("svc")

	out, _ := sess.Call("append", []byte("a"))
	fmt.Println(string(out))

	srv.Crash() // all in-memory state lost...
	if _, err := mspr.Start(cfg); err != nil {
		log.Fatal(err)
	}

	out, _ = sess.Call("append", []byte("b")) // ...and recovered
	fmt.Println(string(out))
	// Output:
	// a
	// ab
}

// ExampleDefinition_sharedState shows shared in-memory state: value-logged,
// recoverable, consistent across sessions.
func ExampleDefinition_sharedState() {
	sim := mspr.NewSim(0)
	dom := sim.NewDomain("example")
	def := mspr.Definition{
		Methods: map[string]mspr.Handler{
			"visit": func(ctx *mspr.Ctx, _ []byte) ([]byte, error) {
				return ctx.UpdateShared("visits", func(old []byte) []byte { return append(old, 'x') })
			},
		},
		Shared: []mspr.SharedDef{{Name: "visits", Initial: nil}},
	}
	cfg := sim.NewConfig("svc", dom, def)
	srv, err := mspr.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	client := sim.NewClient("client")
	defer client.Close()

	alice := client.Session("svc")
	bob := client.Session("svc")
	alice.Call("visit", nil)
	bob.Call("visit", nil)

	srv.Crash()
	if _, err := mspr.Start(cfg); err != nil {
		log.Fatal(err)
	}
	out, _ := alice.Call("visit", nil)
	fmt.Printf("%d visits survived\n", len(out))
	// Output:
	// 3 visits survived
}

// ExampleSim_NewDurableClient shows client-side durability: a restarted
// client resumes its sessions without duplicating requests.
func ExampleSim_NewDurableClient() {
	sim := mspr.NewSim(0)
	dom := sim.NewDomain("example")
	def := mspr.Definition{
		Methods: map[string]mspr.Handler{
			"count": func(ctx *mspr.Ctx, _ []byte) ([]byte, error) {
				n := append(ctx.GetVar("n"), '+')
				ctx.SetVar("n", n)
				return n, nil
			},
		},
	}
	if _, err := mspr.Start(sim.NewConfig("svc", dom, def)); err != nil {
		log.Fatal(err)
	}
	clientDisk := sim.NewDisk()
	dc, err := sim.NewDurableClient("dc", clientDisk)
	if err != nil {
		log.Fatal(err)
	}
	sess, _ := dc.Session("svc")
	sess.Call("count", nil)
	sess.Call("count", nil)
	id := sess.ID()
	dc.Crash() // the client itself dies...

	dc2, err := sim.NewDurableClient("dc", clientDisk) // ...and comes back
	if err != nil {
		log.Fatal(err)
	}
	defer dc2.Close()
	out, _ := dc2.Sessions()[id].Call("count", nil)
	fmt.Println(string(out))
	// Output:
	// +++
}
