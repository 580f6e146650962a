// Command mspr-vet runs the protocol-invariant static analysis suite
// over the module: the paper's recovery-correctness rules (flush-before-
// send pessimism, simulated-time discipline) as compile-time checks, plus
// the CFG/dataflow concurrency-protocol analyzers (lockorder: the
// declared mutex lattice and no-blocking-under-noblock-locks; guardedby:
// //mspr:guarded-by fields only touched with their mutex held on every
// path).
// flushed-by is path-sensitive: a flush must cover EVERY path to an
// emit, and findings name an unflushed witness path.
//
// Usage:
//
//	mspr-vet [-json] [-list] [-run analyzer,...] [patterns...]
//
// -list prints each analyzer's name and doc and exits. -run validates
// its names: an unknown analyzer is a usage error (exit 2) listing the
// known set. The pseudo-name "directives" selects no analyzer and just
// runs the always-on //mspr: hygiene pass. Findings
// carry file:line:col and sort by (file, line, col, analyzer, message),
// so -json output is byte-stable across runs.
//
// Patterns default to ./... and are resolved against the working
// directory. Exit status: 0 clean, 1 findings reported, 2 load or usage
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mspr/internal/invariants"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array")
		runList = flag.String("run", "", "comma-separated analyzer subset (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range invariants.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := invariants.ByName(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mspr-vet:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mspr-vet:", err)
		return 2
	}
	loader, err := invariants.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mspr-vet:", err)
		return 2
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mspr-vet:", err)
		return 2
	}

	findings := invariants.Run(loader, pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []invariants.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "mspr-vet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "mspr-vet: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
