// Command benchmark is the repository's benchmark: four named workloads
// against a pinned copy of the paper's system (see sut.go), end-to-end
// metrics from untraced runs, and per-layer metrics from a traced run.
// README.md describes the workloads, the metrics and how they interact.
//
//	bash benchmark/run.sh                               every workload, end-to-end metrics
//	bash benchmark/run.sh -trace 1 -trace-out spans.jsonl   ... per-layer metrics and the span file
//	bash benchmark/run.sh -workload paper_lo -seed 3 -seconds 20 -trace 0
//	bash benchmark/run.sh -selfcheck                    two sets of runs must agree within the bounds
//
// With -workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics. The exit code is non-zero
// when a run could not be made or a check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: each in turn)")
	seed := fs.Int64("seed", 1, "seed of the request payloads and of recover_4k's choice of sessions")
	seconds := fs.Float64("seconds", 20, "seconds one run measures for")
	trace := fs.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "file a traced run writes its spans to, one JSON object a line")
	selfcheck := fs.Bool("selfcheck", false, "run every workload in two sets and fail if a median differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut, shrink: 1}

	fmt.Fprintf(stdout, "# seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s time_scale=%g commit=%s\n",
		*seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), paperTimeScale, commit())

	if *selfcheck {
		return selfCheck(opts, stdout, stderr)
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		todo = []workload{w}
	}
	ok := true
	for _, w := range todo {
		res, err := w.run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		ok = res.print(w, opts.trace, stdout) && ok
		if *name != "" {
			if err := res.printJSON(opts.trace, stdout); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// commit is the checked-out commit, or "unknown" outside a git checkout.
// git may not look above the current directory for a repository.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// correct reports whether every check of the run passed.
func (r *result) correct() bool {
	return r.failed == 0 && len(r.e2e.errs) == 0 && len(r.layer.errs) == 0
}

// print writes the run's metrics by name, with units, and the failed
// checks. The counter-based layer metrics are known in every run; the
// probe and span metrics only in a traced one.
func (r *result) print(w workload, traced bool, out io.Writer) bool {
	fmt.Fprintf(out, "\n== %s: %d attempted, %d failed\n", w.Name, r.attempted, r.failed)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "%-44s %16.4f %s\n", d.Name, r.e2e.values[d.Name], d.Unit)
	}
	for _, d := range perLayer {
		if v, ok := r.layer.values[d.Name]; ok || traced {
			fmt.Fprintf(out, "%-44s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "FAILED: %s\n", p)
	}
	for _, e := range append(r.e2e.errs, r.layer.errs...) {
		fmt.Fprintf(out, "FAILED: %s\n", e)
	}
	return r.correct()
}

// printJSON writes the result line the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *result) printJSON(traced bool, out io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	set := r.e2e
	if traced {
		set = r.layer
	}
	ms := make(map[string]value, len(set.decls))
	for _, d := range set.decls {
		ms[d.Name] = value{set.values[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// selfCheckRuns is the number of runs in each of the self-check's sets.
const selfCheckRuns = 3

// selfCheck runs every workload in two interleaved sets of untraced
// runs and compares the sets' medians of each end-to-end metric: the
// second may not be worse than the first by more than the metric's
// bound. It is the benchmark's own repeatability test.
func selfCheck(o runOpts, stdout, stderr io.Writer) int {
	o.trace = false
	ok := true
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = make(map[string][]float64)
		}
		for i := 0; i < 2*selfCheckRuns; i++ {
			o.seed++
			res, err := w.run(o)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			ok = res.correct() && ok
			for _, d := range endToEnd {
				sets[i%2][d.Name] = append(sets[i%2][d.Name], res.e2e.values[d.Name])
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(stdout, "%-12s %-16s %14.4f %14.4f %s  %+6.1f%% (bound %.0f%%) %s\n",
				w.Name, d.Name, a, b, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
