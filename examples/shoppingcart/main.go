// Shopping cart: the paper's motivating middle-tier scenario (§1.3).
//
// A storefront MSP keeps each customer's cart in private session state
// and caches product inventory in shared in-memory state — the pattern
// the paper highlights: "an MSP program can now cache shared state
// retrieved from a database, enabling later requests to have speedy
// access to it". Without log-based recovery, a crash would drop every
// cart and the cache; here the server crashes mid-shopping-spree and
// every cart, reservation and cache entry survives with exactly-once
// semantics.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"strings"

	"mspr"
)

func u32(v uint32) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	return b
}

func asU32(b []byte) uint32 {
	if len(b) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// storefront sells two products with limited stock, cached as shared
// variables "stock/<sku>".
func storefront() mspr.Definition {
	return mspr.Definition{
		Methods: map[string]mspr.Handler{
			// add <sku> reserves one unit and appends it to the cart.
			"add": func(ctx *mspr.Ctx, sku []byte) ([]byte, error) {
				key := "stock/" + string(sku)
				// Check and decrement in one atomic update: a separate read
				// and write would let two sessions sell the last unit.
				soldOut := false
				left, err := ctx.UpdateShared(key, func(old []byte) []byte {
					if soldOut = asU32(old) == 0; soldOut {
						return old
					}
					return u32(asU32(old) - 1)
				})
				if err != nil {
					return nil, fmt.Errorf("unknown product %q", sku)
				}
				if soldOut {
					return nil, fmt.Errorf("%s is sold out", sku)
				}
				cart := ctx.GetVar("cart")
				if len(cart) > 0 {
					cart = append(cart, ',')
				}
				cart = append(cart, sku...)
				ctx.SetVar("cart", cart)
				return []byte(fmt.Sprintf("added %s, %d left", sku, asU32(left))), nil
			},
			// cart returns the session's cart contents.
			"cart": func(ctx *mspr.Ctx, _ []byte) ([]byte, error) {
				return ctx.GetVar("cart"), nil
			},
			// checkout empties the cart and reports what was bought.
			"checkout": func(ctx *mspr.Ctx, _ []byte) ([]byte, error) {
				cart := ctx.GetVar("cart")
				ctx.SetVar("cart", nil)
				if len(cart) == 0 {
					return []byte("nothing to buy"), nil
				}
				n := strings.Count(string(cart), ",") + 1
				return []byte(fmt.Sprintf("bought %d items: %s", n, cart)), nil
			},
		},
		Shared: []mspr.SharedDef{
			{Name: "stock/gopher", Initial: u32(5)},
			{Name: "stock/manual", Initial: u32(2)},
		},
	}
}

func main() {
	sim := mspr.NewSim(0.02)
	dom := sim.NewDomain("shop")
	cfg := sim.NewConfig("storefront", dom, storefront())
	srv, err := mspr.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}

	client := sim.NewClient("browser")
	defer client.Close()
	alice := client.Session("storefront")
	bob := client.Session("storefront")

	say := func(who string, out []byte, err error) {
		if err != nil {
			fmt.Printf("%8s: ERROR %v\n", who, err)
			return
		}
		fmt.Printf("%8s: %s\n", who, out)
	}

	out, err := alice.Call("add", []byte("gopher"))
	say("alice", out, err)
	out, err = bob.Call("add", []byte("gopher"))
	say("bob", out, err)
	out, err = alice.Call("add", []byte("manual"))
	say("alice", out, err)

	fmt.Println("   --- storefront crashes: carts and cache were all in memory ---")
	srv.Crash()
	if _, err := mspr.Start(cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Println("   --- restarted: sessions and shared stock recovered from the log ---")

	out, err = alice.Call("cart", nil)
	say("alice", out, err)
	out, err = bob.Call("add", []byte("manual"))
	say("bob", out, err)
	out, err = bob.Call("add", []byte("manual"))
	say("bob", out, err) // the last manual went to bob's first post-crash add
	out, err = alice.Call("checkout", nil)
	say("alice", out, err)
	out, err = bob.Call("checkout", nil)
	say("bob", out, err)
}
